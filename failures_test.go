package bfskel

import "testing"

// TestFailureCreatesHole: killing a disk of sensors inside a solid region
// creates a hole; re-extraction detects it as a genuine skeleton loop (the
// paper's "loops caused by node failure are genuine" case).
func TestFailureCreatesHole(t *testing.T) {
	net := testNetwork(t, "onehole", 2500, 7, 1)
	before, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := before.Skeleton.CycleRank(); got != 1 {
		t.Fatalf("pre-failure rank = %d, want 1", got)
	}

	// Kill a disk in the solid lower-right quadrant, well away from the
	// existing hole.
	failed := NodesWithin(net, Point{X: 80, Y: 20}, 10)
	if len(failed) < 30 {
		t.Fatalf("only %d nodes in the failure disk", len(failed))
	}
	after := FailNodes(net, failed)
	if after.N() >= net.N()-len(failed)+5 {
		t.Fatalf("failure removed too few nodes: %d -> %d", net.N(), after.N())
	}
	res, err := after.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Skeleton.CycleRank(); got != 2 {
		t.Errorf("post-failure rank = %d, want 2 (original hole + failure hole)", got)
	}
	if comps := res.Skeleton.Components(); comps != 1 {
		t.Errorf("post-failure components = %d", comps)
	}
}

// TestFailNodesBookkeeping: survivors keep their positions and mutual
// links.
func TestFailNodesBookkeeping(t *testing.T) {
	net := testNetwork(t, "star", 800, 7, 1)
	failed := []int32{0, 5, 10}
	after := FailNodes(net, failed)
	if after.N() > net.N()-len(failed) {
		t.Errorf("N = %d after failing %d of %d", after.N(), len(failed), net.N())
	}
	// Every survivor position existed before.
	existing := make(map[Point]bool, net.N())
	for _, p := range net.Points {
		existing[p] = true
	}
	for _, p := range after.Points {
		if !existing[p] {
			t.Fatalf("survivor at unknown position %v", p)
		}
	}
}

// TestExtractDistributedMatchesCentralized: the full distributed pipeline
// produces the same sites and the same skeleton topology as the centralized
// one (node-level paths may differ where several shortest reverse paths are
// equally valid).
func TestExtractDistributedMatchesCentralized(t *testing.T) {
	net := testNetwork(t, "twoholes", 1800, 7, 2)
	cen, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if cen.EffectiveK != DefaultParams().K {
		t.Skip("saturation guard engaged; radii not comparable")
	}
	dist, dres, err := ExtractDistributed(net, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Sites) != len(cen.Sites) {
		t.Fatalf("sites: distributed %d, centralized %d", len(dist.Sites), len(cen.Sites))
	}
	for i := range dist.Sites {
		if dist.Sites[i] != cen.Sites[i] {
			t.Fatalf("site %d differs", i)
		}
	}
	if got, want := dist.Skeleton.CycleRank(), cen.Skeleton.CycleRank(); got != want {
		t.Errorf("cycle rank: distributed %d, centralized %d", got, want)
	}
	if got, want := dist.Skeleton.Components(), cen.Skeleton.Components(); got != want {
		t.Errorf("components: distributed %d, centralized %d", got, want)
	}
	if dres.TotalMessages() == 0 {
		t.Error("no transmissions counted")
	}
}

// TestExtractDistributedRejectsBadParams: invalid parameters fail before
// any protocol phase runs, so no distributed result comes back.
func TestExtractDistributedRejectsBadParams(t *testing.T) {
	net := testNetwork(t, "window", 800, 7, 1)
	for name, edit := range map[string]func(*Params){
		"PruneLen": func(p *Params) { p.PruneLen = -1 },
		"Alpha":    func(p *Params) { p.Alpha = -1 },
	} {
		p := DefaultParams()
		edit(&p)
		res, dres, err := ExtractDistributed(net, p)
		if err == nil || res != nil || dres != nil {
			t.Errorf("%s < 0: got result %v, distributed result %v, err %v; want only an error",
				name, res != nil, dres != nil, err)
		}
	}
}
