package casex

import (
	"testing"

	"bfskel/internal/graph"
)

func TestLabelBranches(t *testing.T) {
	branchOf := make([]int, 10)
	for i := range branchOf {
		branchOf[i] = -1
	}
	cycle := []int32{0, 1, 2, 3, 4, 5}

	// No corners: one branch.
	next := labelBranches(cycle, nil, branchOf, 0)
	if next != 1 {
		t.Fatalf("next = %d", next)
	}
	for _, v := range cycle {
		if branchOf[v] != 0 {
			t.Fatalf("node %d branch = %d", v, branchOf[v])
		}
	}

	// Two corners split the cycle into two contiguous branches.
	for i := range branchOf {
		branchOf[i] = -1
	}
	next = labelBranches(cycle, []int32{1, 4}, branchOf, 5)
	if next != 7 {
		t.Fatalf("next = %d, want 7 (two branches from base 5)", next)
	}
	// Starting at corner 1: positions 1,2,3 are one branch; 4,5,0 the other.
	if branchOf[1] != branchOf[2] || branchOf[2] != branchOf[3] {
		t.Errorf("first branch not contiguous: %v", branchOf[:6])
	}
	if branchOf[4] != branchOf[5] || branchOf[5] != branchOf[0] {
		t.Errorf("second branch not contiguous: %v", branchOf[:6])
	}
	if branchOf[1] == branchOf[4] {
		t.Errorf("branches not distinct: %v", branchOf[:6])
	}
}

// TestDetectCornersSyntheticL: an L-shaped boundary band on a grid has a
// sharp inner corner where the shortcut between window ends is much shorter
// than the arc; a straight band has none.
func TestDetectCornersSyntheticL(t *testing.T) {
	// Grid graph 20x20 with unit spacing and 8-neighborhood would be
	// overkill; instead build two explicit bands over a shared graph.
	//
	// The graph is a 2D lattice; the "cycle" is the ordered node list we
	// hand to detectCorners, mimicking an ordered boundary chain.
	const w = 21
	b := graph.New(w * w)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(int(id(x, y)), int(id(x+1, y)))
			}
			if y+1 < w {
				b.AddEdge(int(id(x, y)), int(id(x, y+1)))
			}
			if x+1 < w && y+1 < w {
				b.AddEdge(int(id(x, y)), int(id(x+1, y+1))) // diagonals make the L cut shorter
			}
		}
	}
	g := b.Freeze()

	// L-band: along the bottom row then up the right column.
	var lband []int32
	for x := 0; x < w; x++ {
		lband = append(lband, id(x, 0))
	}
	for y := 1; y < w; y++ {
		lband = append(lband, id(w-1, y))
	}
	// detectCorners treats the list as circular; pad the ends far apart by
	// requiring len >= 4w, which holds (41 >= 24).
	corners := detectCorners(graph.NewWalker(g), lband, 0.8)
	if len(corners) == 0 {
		t.Error("no corner found on an L band")
	}
	// The corner should be near the bend (w-1, 0).
	foundNearBend := false
	for _, c := range corners {
		x, y := int(c)%w, int(c)/w
		if y <= 3 && x >= w-4 {
			foundNearBend = true
		}
	}
	if !foundNearBend {
		t.Errorf("corners %v not near the bend", corners)
	}
}
