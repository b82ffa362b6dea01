package mapax

import (
	"testing"

	"bfskel/internal/core"
	"bfskel/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	b := graph.New(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Freeze()
	return g
}

func TestSeparationAtLeast(t *testing.T) {
	g := pathGraph(10)
	s := newSeparation(g)
	// dist(0,5) = 5.
	if !s.atLeast(0, 5, 5) {
		t.Error("5 >= 5 failed")
	}
	if s.atLeast(0, 5, 6) {
		t.Error("5 >= 6 succeeded")
	}
	if !s.atLeast(0, 5, 3) {
		t.Error("5 >= 3 failed")
	}
	if !s.atLeast(3, 3, 0) || s.atLeast(3, 3, 1) {
		t.Error("self distance handling")
	}
}

// TestSeparationMemoUpgrade: a weak cached bound ("> cap") must be
// recomputed when a later query needs a larger threshold.
func TestSeparationMemoUpgrade(t *testing.T) {
	g := pathGraph(20)
	s := newSeparation(g)
	// First query with a small want caches "> 3".
	if !s.atLeast(0, 10, 3) {
		t.Fatal("10 >= 3 failed")
	}
	// Now a query needing exactness beyond the cached cap.
	if s.atLeast(0, 10, 11) {
		t.Error("10 >= 11 succeeded after weak cache")
	}
	if !s.atLeast(0, 10, 10) {
		t.Error("10 >= 10 failed after recompute")
	}
	// Symmetric key: (10,0) hits the same cache entry.
	if !s.atLeast(10, 0, 10) {
		t.Error("symmetric lookup failed")
	}
}

func TestMedialAtDifferentCycles(t *testing.T) {
	sep := newSeparation(pathGraph(4))
	cycleOf := map[int32]int{0: 0, 3: 1}
	recs := []core.SiteDist{{Site: 0, D: 2}, {Site: 3, D: 2}}
	if !medialAt(recs, 2, cycleOf, sep) {
		t.Error("different-cycle pair not medial")
	}
	// Same cycle, close together: not medial.
	cycleOf[3] = 0
	if medialAt(recs, 2, cycleOf, sep) {
		t.Error("close same-cycle pair declared medial")
	}
	// Sources missing from any cycle are ignored.
	if medialAt([]core.SiteDist{{Site: 9, D: 1}, {Site: 8, D: 1}}, 1,
		cycleOf, sep) {
		t.Error("unknown sources declared medial")
	}
}
