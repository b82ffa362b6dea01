package casex_test

import (
	"testing"

	"bfskel/internal/boundary"
	"bfskel/internal/casex"
	"bfskel/internal/nettest"
)

// TestExtractStar checks CASE on the star field: the boundary must split
// into several branches (the star has ten alternating corners) and the
// skeleton nodes must lie medially.
func TestExtractStar(t *testing.T) {
	net := nettest.Grid("star", 1394, 7, 1)
	b := boundary.Detect(net.Graph)
	res := casex.Extract(net.Graph, b)

	t.Logf("branches=%d skeleton nodes=%d", res.NumBranches, len(res.SkeletonNodes))
	if res.NumBranches < 4 {
		t.Errorf("branches = %d, want >= 4 (star boundary has many corners)", res.NumBranches)
	}
	if len(res.SkeletonNodes) == 0 {
		t.Fatal("no skeleton nodes")
	}
	var all, skel float64
	for v := 0; v < net.Graph.N(); v++ {
		all += net.Shape.Poly.BoundaryDist(net.Points[v])
	}
	all /= float64(net.Graph.N())
	for _, v := range res.SkeletonNodes {
		skel += net.Shape.Poly.BoundaryDist(net.Points[v])
	}
	skel /= float64(len(res.SkeletonNodes))
	t.Logf("mean clearance: skeleton %.2f vs network %.2f", skel, all)
	if skel < 1.2*all {
		t.Errorf("skeleton mean clearance %.2f not above network mean %.2f", skel, all)
	}
}

// TestCornersOnConvexField checks that a field without sharp concavities
// (the smile's disk-like face) yields far fewer corners than the star.
func TestCornersOnConvexField(t *testing.T) {
	star := nettest.Grid("star", 1394, 7, 1)
	smile := nettest.Grid("smile", 1500, 7, 1)

	cornerCount := func(n *nettest.Network) int {
		b := boundary.Detect(n.Graph)
		res := casex.Extract(n.Graph, b)
		total := 0
		for _, cs := range res.Corners {
			total += len(cs)
		}
		return total
	}
	cs, cm := cornerCount(star), cornerCount(smile)
	t.Logf("corners: star=%d smile=%d", cs, cm)
	if cs <= cm {
		t.Errorf("star should have more corners than the smile face (star=%d smile=%d)", cs, cm)
	}
}
