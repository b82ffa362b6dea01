package core

import (
	"slices"
	"testing"

	"bfskel/internal/nettest"
)

// TestExtractorStats checks that the staged engine instruments every phase
// and that the work counters agree with the result it produced.
func TestExtractorStats(t *testing.T) {
	net := nettest.Grid("window", 800, 7, 3)
	x := NewExtractor(net.Graph)
	x.CollectMemStats = true
	res, err := x.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("Result.Stats is nil after an engine run")
	}

	wantPhases := []string{"identify", "voronoi", "coarse", "refine", "boundary"}
	if len(st.Phases) != len(wantPhases) {
		t.Fatalf("got %d phases, want %d: %+v", len(st.Phases), len(wantPhases), st.Phases)
	}
	for i, name := range wantPhases {
		ph := st.Phases[i]
		if ph.Name != name {
			t.Errorf("phase %d is %q, want %q", i, ph.Name, name)
		}
		if ph.Duration <= 0 {
			t.Errorf("phase %q has non-positive duration %v", ph.Name, ph.Duration)
		}
		if got, ok := st.Phase(name); !ok || got.Name != name {
			t.Errorf("Phase(%q) lookup failed (ok=%v)", name, ok)
		}
	}
	if st.Total <= 0 {
		t.Errorf("total duration %v, want > 0", st.Total)
	}

	if st.Sites != len(res.Sites) {
		t.Errorf("Stats.Sites = %d, want len(res.Sites) = %d", st.Sites, len(res.Sites))
	}
	if want := len(res.Sites) + 1; st.Floods != want {
		t.Errorf("Stats.Floods = %d, want joint flood + one per site = %d", st.Floods, want)
	}
	if id, _ := st.Phase("identify"); id.Sweeps < int64(net.Graph.N()) {
		t.Errorf("identify Sweeps = %d, want at least one ball sweep per node (%d)",
			id.Sweeps, net.Graph.N())
	}
	if st.ElectionRounds < 1 {
		t.Errorf("Stats.ElectionRounds = %d, want >= 1", st.ElectionRounds)
	}
	if st.MedianKHopBall <= 0 {
		t.Errorf("Stats.MedianKHopBall = %d, want > 0", st.MedianKHopBall)
	}
	if st.SegmentNodes != len(res.SegmentNodes) {
		t.Errorf("Stats.SegmentNodes = %d, want %d", st.SegmentNodes, len(res.SegmentNodes))
	}
	if st.VoronoiNodes != len(res.VoronoiNodes) {
		t.Errorf("Stats.VoronoiNodes = %d, want %d", st.VoronoiNodes, len(res.VoronoiNodes))
	}
	if st.Edges != len(res.Edges) {
		t.Errorf("Stats.Edges = %d, want %d", st.Edges, len(res.Edges))
	}
	if st.FakeLoops != res.NumFakeLoops() {
		t.Errorf("Stats.FakeLoops = %d, want %d", st.FakeLoops, res.NumFakeLoops())
	}
	if st.GenuineLoops != res.NumGenuineLoops() {
		t.Errorf("Stats.GenuineLoops = %d, want %d", st.GenuineLoops, res.NumGenuineLoops())
	}
	if st.BoundaryNodes != len(res.Boundary) {
		t.Errorf("Stats.BoundaryNodes = %d, want %d", st.BoundaryNodes, len(res.Boundary))
	}
	if st.String() == "" {
		t.Error("Stats.String() is empty")
	}
}

// TestIdentifySweepsCountLiveWork pins identify's walker tally: ball sizing
// sweeps from every node ID and pushes the centrality sums from the same
// passes, and the election floods only from live nodes. With a single
// election round that is n + live sweeps on a clean field, after churn, and
// on a field above 2^17 nodes alike.
func TestIdentifySweepsCountLiveWork(t *testing.T) {
	cases := []struct{ n, every int }{{800, 0}, {800, 10}, {140000, 0}}
	for _, c := range cases {
		g := nettest.Grid("window", c.n, 7, 3).Graph
		n := g.N()
		if c.every > 0 {
			var dead []int32
			for v := 0; v < n; v += c.every {
				dead = append(dead, int32(v))
			}
			g.RemoveNodes(dead)
		}
		live := 0
		for v := 0; v < n; v++ {
			if g.Alive(int32(v)) {
				live++
			}
		}
		res, err := NewExtractor(g).Extract(DefaultParams())
		if err != nil {
			t.Fatalf("n=%d every=%d: %v", n, c.every, err)
		}
		if res.Stats.ElectionRounds != 1 {
			t.Fatalf("n=%d every=%d: want one election round, got %d", n, c.every, res.Stats.ElectionRounds)
		}
		id, _ := res.Stats.Phase("identify")
		if want := int64(n + live); id.Sweeps != want {
			t.Errorf("n=%d every=%d: identify Sweeps = %d, want n + live = %d + %d", n, c.every, id.Sweeps, n, live)
		}
	}
}

// TestMedianKHopBallAtEffectiveK: when the min-site guard shrinks K, the
// reported median is the median of the final KHopSize, not of the K-ball
// column the first election round used.
func TestMedianKHopBallAtEffectiveK(t *testing.T) {
	res, err := NewExtractor(pathGraph(60)).Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveK >= DefaultParams().K {
		t.Fatalf("EffectiveK = %d: the path no longer exercises the k-min-sites guard", res.EffectiveK)
	}
	sorted := slices.Clone(res.KHopSize)
	slices.Sort(sorted)
	if want := sorted[len(sorted)/2]; res.Stats.MedianKHopBall != want {
		t.Fatalf("Stats.MedianKHopBall = %d, want the K=%d median %d", res.Stats.MedianKHopBall, res.EffectiveK, want)
	}
}

// TestExtractorResultsIndependent checks the reuse contract at the data
// level: arrays of a previous result must not be overwritten by a later run
// on the same engine.
func TestExtractorResultsIndependent(t *testing.T) {
	net := nettest.Grid("window", 500, 7, 2)
	x := NewExtractor(net.Graph)
	first, err := x.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot a few arrays, rerun, and compare.
	khop := append([]int(nil), first.KHopSize...)
	cellOf := append([]int32(nil), first.CellOf...)
	recLens := make([]int, len(first.Records))
	for v, r := range first.Records {
		recLens[v] = len(r)
	}

	p := DefaultParams()
	p.K, p.L = 3, 3
	if _, err := x.Extract(p); err != nil {
		t.Fatal(err)
	}

	for v := range khop {
		if first.KHopSize[v] != khop[v] {
			t.Fatalf("KHopSize[%d] changed from %d to %d after a later engine run",
				v, khop[v], first.KHopSize[v])
		}
		if first.CellOf[v] != cellOf[v] {
			t.Fatalf("CellOf[%d] changed from %d to %d after a later engine run",
				v, cellOf[v], first.CellOf[v])
		}
		if len(first.Records[v]) != recLens[v] {
			t.Fatalf("Records[%d] length changed from %d to %d after a later engine run",
				v, recLens[v], len(first.Records[v]))
		}
	}
}
