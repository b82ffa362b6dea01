package bfskel

import "testing"

// TestSmokeWindow runs the full pipeline on the paper's Fig. 1 network and
// checks the headline invariants: a non-trivial connected skeleton whose
// cycle rank equals the number of holes (homotopy preservation).
func TestSmokeWindow(t *testing.T) {
	net, err := BuildNetwork(NetworkSpec{
		Shape:     MustShape("window"),
		N:         2592,
		TargetDeg: 5.96,
		Seed:      1,
		Layout:    LayoutGrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d avg.deg=%.2f", net.N(), net.AvgDegree())
	res, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sites=%d segment=%d voronoi=%d edges=%d", len(res.Sites), len(res.SegmentNodes), len(res.VoronoiNodes), len(res.Edges))
	t.Logf("coarse: nodes=%d edges=%d rank=%d comps=%d", res.Coarse.NumNodes(), res.Coarse.NumEdges(), res.Coarse.CycleRank(), res.Coarse.Components())
	t.Logf("final:  nodes=%d edges=%d rank=%d comps=%d", res.Skeleton.NumNodes(), res.Skeleton.NumEdges(), res.Skeleton.CycleRank(), res.Skeleton.Components())
	t.Logf("loops: %d fake, %d genuine", res.NumFakeLoops(), res.NumGenuineLoops())
	if res.Skeleton.NumNodes() == 0 {
		t.Fatal("empty skeleton")
	}
	wantHoles := MustShape("window").Holes()
	if got := res.Skeleton.CycleRank(); got != wantHoles {
		t.Errorf("cycle rank = %d, want %d (homotopy)", got, wantHoles)
	}
	if comps := res.Skeleton.Components(); comps != 1 {
		t.Errorf("skeleton components = %d, want 1", comps)
	}
}

// TestFig1Regression pins the exact headline numbers of the Fig. 1
// reproduction. These values are deterministic for (seed 1, jittered grid,
// default params); a change here means the pipeline's behaviour changed —
// update deliberately, alongside EXPERIMENTS.md.
func TestFig1Regression(t *testing.T) {
	net, res, err := RunScenario(Fig1Scenario(), 1, ObsScope{})
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 2594 {
		t.Errorf("n = %d, want 2594", net.N())
	}
	if len(res.Sites) != 22 {
		t.Errorf("sites = %d, want 22", len(res.Sites))
	}
	if res.Skeleton.NumNodes() != 283 {
		t.Errorf("skeleton nodes = %d, want 283", res.Skeleton.NumNodes())
	}
	if res.Skeleton.CycleRank() != 4 {
		t.Errorf("cycle rank = %d, want 4", res.Skeleton.CycleRank())
	}
	if res.NumFakeLoops() != 3 || res.NumGenuineLoops() != 4 {
		t.Errorf("loops = %d fake / %d genuine, want 3/4", res.NumFakeLoops(), res.NumGenuineLoops())
	}
}
