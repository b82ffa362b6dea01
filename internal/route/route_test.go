package route_test

import (
	"testing"

	"bfskel/internal/core"
	"bfskel/internal/graph"
	"bfskel/internal/nettest"
	"bfskel/internal/route"
)

func gridGraph(w, h int) *graph.Graph {
	b := graph.New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	g := b.Freeze()
	return g
}

func TestShortestPathRouter(t *testing.T) {
	g := gridGraph(5, 5)
	r := route.NewShortestPath(g)
	path, err := r.Route(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 9 { // 8 hops across the grid
		t.Errorf("path length = %d, want 9", len(path))
	}
	validatePath(t, g, path, 0, 24)
	// Repeated query from the same source exercises the cache.
	path2, err := r.Route(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	validatePath(t, g, path2, 0, 12)
	// Unreachable.
	iso := graph.New(2).Freeze()
	ri := route.NewShortestPath(iso)
	if _, err := ri.Route(0, 1); err == nil {
		t.Error("expected unreachable error")
	}
}

func TestSkeletonRouter(t *testing.T) {
	g := gridGraph(7, 7)
	// Skeleton: the middle row.
	skel := core.NewSkeleton(g.N())
	var row []int32
	for x := 0; x < 7; x++ {
		row = append(row, int32(3*7+x))
	}
	skel.AddPath(row)
	r, err := route.NewSkeleton(g, skel)
	if err != nil {
		t.Fatal(err)
	}
	// Anchors point into the middle row.
	if a := r.Anchor(0); a < 21 || a > 27 {
		t.Errorf("anchor of 0 = %d", a)
	}
	path, err := r.Route(0, 48)
	if err != nil {
		t.Fatal(err)
	}
	validatePath(t, g, path, 0, 48)
	// The route passes through skeleton territory (middle row).
	touched := false
	for _, v := range path {
		if skel.Contains(v) {
			touched = true
			break
		}
	}
	if !touched {
		t.Error("skeleton route avoided the skeleton")
	}
	// Degenerate: both endpoints anchor at the same skeleton node.
	short, err := r.Route(21, 22)
	if err != nil {
		t.Fatal(err)
	}
	validatePath(t, g, short, 21, 22)

	if _, err := route.NewSkeleton(g, core.NewSkeleton(g.N())); err == nil {
		t.Error("empty skeleton accepted")
	}
}

func validatePath(t *testing.T, g *graph.Graph, path []int32, s, d int32) {
	t.Helper()
	if len(path) == 0 || path[0] != s || path[len(path)-1] != d {
		t.Fatalf("path endpoints wrong: %v (want %d..%d)", path, s, d)
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(int(path[i-1]), int(path[i])) {
			t.Fatalf("path uses non-edge %d-%d", path[i-1], path[i])
		}
	}
}

func TestMeasureLoad(t *testing.T) {
	net := nettest.Grid("star", 800, 7, 1)
	res, err := core.Extract(net.Graph, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sp := route.NewShortestPath(net.Graph)
	rep, err := route.MeasureLoad(net.Graph, sp, 100, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 || rep.Pairs > 100 {
		t.Errorf("pairs = %d", rep.Pairs)
	}
	// Shortest path routed against itself has stretch exactly 1.
	if rep.MeanStretch != 1 {
		t.Errorf("shortest-path stretch = %v", rep.MeanStretch)
	}
	if rep.MaxLoad < rep.P99Load {
		t.Errorf("max %d < p99 %d", rep.MaxLoad, rep.P99Load)
	}

	sk, err := route.NewSkeleton(net.Graph, res.Skeleton)
	if err != nil {
		t.Fatal(err)
	}
	skRep, err := route.MeasureLoad(net.Graph, sk, 100, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if skRep.MeanStretch < 1 {
		t.Errorf("skeleton stretch = %v < 1", skRep.MeanStretch)
	}
	if skRep.MeanStretch > 3 {
		t.Errorf("skeleton stretch = %v implausibly high", skRep.MeanStretch)
	}
}
