package boundary_test

import (
	"testing"

	"bfskel/internal/boundary"
	"bfskel/internal/nettest"
)

// TestDetectWindow checks the detector against the geometric truth on the
// window field: most detected nodes must lie within a band of the true
// boundary (precision), and every boundary ring should contribute a cycle.
func TestDetectWindow(t *testing.T) {
	net := nettest.Grid("window", 2592, 7, 1)
	res := boundary.Detect(net.Graph)
	if len(res.Nodes) == 0 {
		t.Fatal("no boundary nodes detected")
	}

	// Precision against a geometric band of width 2.5R.
	band := 0.0
	if u, ok := net.Radio.(interface{ MaxRange() float64 }); ok {
		band = 2.5 * u.MaxRange()
	}
	hits := 0
	for _, v := range res.Nodes {
		if net.Shape.Poly.BoundaryDist(net.Points[v]) <= band {
			hits++
		}
	}
	precision := float64(hits) / float64(len(res.Nodes))
	t.Logf("detected=%d precision=%.2f cycles=%d", len(res.Nodes), precision, len(res.Cycles))
	if precision < 0.9 {
		t.Errorf("precision %.2f < 0.9", precision)
	}

	// The window has 5 boundary curves (outer + 4 panes); chaining may
	// fragment sparse stretches, so require at least 5 substantial chains.
	substantial := 0
	for _, c := range res.Cycles {
		if len(c) >= 10 {
			substantial++
		}
	}
	if substantial < 5 {
		t.Errorf("substantial cycles = %d, want >= 5", substantial)
	}
}

// TestDetectRecallStar checks that boundary coverage (recall against the
// near-boundary node population) is reasonable on a hole-free field.
func TestDetectRecallStar(t *testing.T) {
	net := nettest.Grid("star", 1394, 7, 1)
	res := boundary.Detect(net.Graph)
	band := 1.2
	if u, ok := net.Radio.(interface{ MaxRange() float64 }); ok {
		band = 1.2 * u.MaxRange()
	}
	var near, caught int
	for v := 0; v < net.Graph.N(); v++ {
		if net.Shape.Poly.BoundaryDist(net.Points[v]) <= band {
			near++
			if res.IsBoundary[v] {
				caught++
			}
		}
	}
	recall := float64(caught) / float64(near)
	t.Logf("near-boundary=%d caught=%d recall=%.2f", near, caught, recall)
	if recall < 0.8 {
		t.Errorf("recall %.2f < 0.8", recall)
	}
}

// TestCycleOf: membership queries resolve to the right chain.
func TestCycleOf(t *testing.T) {
	net := nettest.Grid("star", 1000, 7, 1)
	res := boundary.Detect(net.Graph)
	if len(res.Cycles) == 0 {
		t.Fatal("no cycles")
	}
	for ci, cycle := range res.Cycles {
		for _, v := range cycle {
			if got := res.CycleOf(v); got != ci {
				t.Fatalf("CycleOf(%d) = %d, want %d", v, got, ci)
			}
		}
	}
	// A non-boundary node belongs to no cycle.
	for v := int32(0); int(v) < net.Graph.N(); v++ {
		if !res.IsBoundary[v] {
			if got := res.CycleOf(v); got != -1 {
				t.Fatalf("CycleOf(non-boundary %d) = %d", v, got)
			}
			break
		}
	}
}
