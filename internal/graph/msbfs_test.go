package graph_test

import (
	"math"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
	"bfskel/internal/radio"
	"bfskel/internal/shapes"
)

// equivNetworks builds one small UDG and one QUDG network per deployment
// shape — the full shape catalogue times both link models the paper
// evaluates on.
func equivNetworks(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	nets := make(map[string]*graph.Graph)
	for _, name := range shapes.Names() {
		shape := shapes.MustByName(name)
		udg := nettest.Grid(name, 240, 6.5, 1)
		nets[name+"/udg"] = udg.Graph
		// Mirror the fig6 setting: quasi-UDG with a gray zone.
		r := math.Sqrt(6.5 * shape.Poly.Area() / (math.Pi * 240))
		qudg := nettest.WithModel(name, 240, radio.QUDG{R: r, Alpha: 0.4, P: 0.3}, 1)
		nets[name+"/qudg"] = qudg.Graph
	}
	return nets
}

// TestKernelEquivalenceShapes: the batched MS-BFS kernel and the per-node
// walker produce identical BallSizesInto and BallWeightedSumsInto results,
// and AllKHopCounts matches per-node KHopCount, on every shape, both link
// models, k in 1..6.
func TestKernelEquivalenceShapes(t *testing.T) {
	for name, g := range equivNetworks(t) {
		n := g.N()
		if n == 0 {
			t.Fatalf("%s: empty network", name)
		}
		weight := make([]int, n)
		for v := range weight {
			weight[v] = g.Degree(v) + v%7
		}
		for k := 1; k <= 6; k++ {
			requireKHopCounts(t, name, g, k)
			wb := ballRows(n, k)
			bb := ballRows(n, k)
			g.BallSizesIntoKernel(graph.KernelWalker, k, wb, nil, nil)
			g.BallSizesIntoKernel(graph.KernelBatched, k, bb, nil, nil)
			for v := 0; v < n; v++ {
				for r := 0; r < k; r++ {
					if wb[v][r] != bb[v][r] {
						t.Fatalf("%s k=%d: ball[%d][%d] walker=%d batched=%d", name, k, v, r, wb[v][r], bb[v][r])
					}
				}
			}
			ws := make([]int, n)
			bs := make([]int, n)
			g.BallWeightedSumsInto(graph.KernelWalker, k, weight, ws, nil, nil)
			g.BallWeightedSumsInto(graph.KernelBatched, k, weight, bs, nil, nil)
			for v := range ws {
				if ws[v] != bs[v] {
					t.Fatalf("%s k=%d: weighted sum[%d] walker=%d batched=%d", name, k, v, ws[v], bs[v])
				}
			}
		}
	}
}

// requireKHopCounts checks AllKHopCounts against a per-node KHopCount.
func requireKHopCounts(t *testing.T, name string, g *graph.Graph, k int) {
	t.Helper()
	got := g.AllKHopCounts(k)
	if len(got) != g.N() {
		t.Fatalf("%s k=%d: %d counts for %d nodes", name, k, len(got), g.N())
	}
	for v, c := range got {
		if want := g.KHopCount(v, k); c != want {
			t.Fatalf("%s k=%d: AllKHopCounts[%d] = %d, want %d", name, k, v, c, want)
		}
	}
}

func ballRows(n, k int) [][]int {
	out := make([][]int, n)
	flat := make([]int, n*k)
	for v := range out {
		out[v] = flat[v*k : (v+1)*k : (v+1)*k]
	}
	return out
}

// TestKernelEquivalenceDisconnected: AllKHopCounts matches per-node counts
// on graphs with several components and isolated nodes, where floods must
// stay inside their component.
func TestKernelEquivalenceDisconnected(t *testing.T) {
	g := graph.New(600)
	// Component A: path 0..249. Component B: cycle 250..549. 550..599 isolated.
	for i := 0; i+1 < 250; i++ {
		g.AddEdge(i, i+1)
	}
	for i := 250; i < 550; i++ {
		next := i + 1
		if next == 550 {
			next = 250
		}
		g.AddEdge(i, next)
	}
	g.SortAdjacency()
	for k := 0; k <= 5; k++ {
		requireKHopCounts(t, "disconnected", g, k)
	}
	for v := 550; v < 600; v++ {
		if c := g.KHopCount(v, 4); c != 0 {
			t.Fatalf("isolated node %d has count %d", v, c)
		}
	}
}

// TestKernelK0AndEmpty: k=0 yields all-zero counts and leaves empty ball
// rows untouched, on both kernels; empty graphs are a no-op.
func TestKernelK0AndEmpty(t *testing.T) {
	g := graph.New(700)
	for i := 0; i+1 < 700; i++ {
		g.AddEdge(i, i+1)
	}
	g.SortAdjacency()
	for _, c := range g.AllKHopCounts(0) {
		if c != 0 {
			t.Fatalf("k=0 count %d", c)
		}
	}
	for _, kern := range []graph.Kernel{graph.KernelWalker, graph.KernelBatched} {
		g.BallSizesIntoKernel(kern, 0, ballRows(g.N(), 0), nil, nil)
	}
	empty := graph.New(0)
	empty.SortAdjacency()
	if got := empty.AllKHopCounts(3); len(got) != 0 {
		t.Fatalf("empty graph counts = %v", got)
	}
}

// TestKernelSmallAndUnfrozen: the all-sources floods are exact below one
// 64-source batch, at k = 1, and on hand-built graphs that were never
// frozen (the batched kernel freezes them on demand). Each entry point is
// checked against per-node KHopCount and Walker sweeps.
func TestKernelSmallAndUnfrozen(t *testing.T) {
	// A 40-node ring with chords: fewer sources than one batch.
	small := graph.New(40)
	for i := 0; i < 40; i++ {
		small.AddEdge(i, (i+1)%40)
		if i%5 == 0 {
			small.AddEdge(i, (i+13)%40)
		}
	}
	grid := nettest.Grid("window", 400, 6.5, 3).Graph
	for name, base := range map[string]*graph.Graph{"small": small, "window": grid} {
		for _, k := range []int{1, 2, 4} {
			for entry := 0; entry < 3; entry++ {
				g := cloneThawed(base)
				if g.Frozen() {
					t.Fatalf("%s: hand-built graph unexpectedly frozen", name)
				}
				n := g.N()
				switch entry {
				case 0:
					requireKHopCounts(t, name, g, k)
				case 1:
					rows := ballRows(n, k)
					g.BallSizesInto(k, rows, nil, nil)
					for v := 0; v < n; v++ {
						for r := 1; r <= k; r++ {
							if want := g.KHopCount(v, r); rows[v][r-1] != want {
								t.Fatalf("%s k=%d: ball[%d][%d] = %d, want %d", name, k, v, r-1, rows[v][r-1], want)
							}
						}
					}
				case 2:
					weight := make([]int, n)
					for v := range weight {
						weight[v] = 3*v%11 + 1
					}
					got := make([]int, n)
					g.BallWeightedSumsInto(graph.KernelBatched, k, weight, got, nil, nil)
					w := graph.NewWalker(g)
					for v := 0; v < n; v++ {
						want := 0
						w.Walk(v, k, func(u, _ int32) { want += weight[u] })
						if got[v] != want {
							t.Fatalf("%s k=%d: weighted sum[%d] = %d, want %d", name, k, v, got[v], want)
						}
					}
				}
				if !g.Frozen() {
					t.Fatalf("%s k=%d entry %d: batched flood did not freeze the graph", name, k, entry)
				}
			}
		}
	}
}

// cloneThawed copies a graph edge by edge into a fresh, unfrozen graph with
// the same adjacency order.
func cloneThawed(src *graph.Graph) *graph.Graph {
	g := graph.New(src.N())
	for v := 0; v < src.N(); v++ {
		for _, u := range src.Neighbors(v) {
			if int(u) > v {
				g.AddEdge(v, int(u))
			}
		}
	}
	return g
}

// TestBatchBallSizes: the arbitrary-source entry matches per-source
// KHopCount at every radius, splits across batch boundaries correctly, and
// handles duplicates and unfrozen graphs.
func TestBatchBallSizes(t *testing.T) {
	net := nettest.Grid("window", 400, 6.5, 3)
	g := net.Graph
	sources := make([]int32, 0, 150)
	for v := 0; v < 140; v++ { // spans three 64-wide batches
		sources = append(sources, int32(v*2%g.N()))
	}
	sources = append(sources, sources[0], sources[1]) // duplicates
	const k = 4
	out := g.BatchBallSizes(k, sources)
	if len(out) != len(sources) {
		t.Fatalf("rows = %d, want %d", len(out), len(sources))
	}
	for i, s := range sources {
		for r := 1; r <= k; r++ {
			if want := g.KHopCount(int(s), r); out[i][r-1] != want {
				t.Fatalf("source %d r=%d: got %d, want %d", s, r, out[i][r-1], want)
			}
		}
	}
	// Unfrozen graphs fall back to walker sweeps with identical results.
	thawed := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v {
				thawed.AddEdge(v, int(w))
			}
		}
	}
	if thawed.Frozen() {
		t.Fatal("hand-built graph unexpectedly frozen")
	}
	out2 := thawed.BatchBallSizes(k, sources)
	for i := range out {
		for r := 0; r < k; r++ {
			if out[i][r] != out2[i][r] {
				t.Fatalf("frozen/thawed mismatch at %d/%d", i, r)
			}
		}
	}
	if got := g.BatchBallSizes(3, nil); len(got) != 0 {
		t.Fatalf("nil sources rows = %d", len(got))
	}
}

// TestFreezeSemantics: freezing keeps the adjacency API intact, AddEdge
// thaws without corrupting neighboring rows, and re-freezing restores the
// CSR form.
func TestFreezeSemantics(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.SortAdjacency()
	if !g.Frozen() {
		t.Fatal("SortAdjacency did not freeze")
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("frozen Neighbors(1) = %v", got)
	}
	before2 := append([]int32(nil), g.Neighbors(2)...)
	g.AddEdge(1, 4) // thaw; must not clobber node 2's window
	if g.Frozen() {
		t.Fatal("AddEdge did not thaw")
	}
	if got := g.Neighbors(2); len(got) != len(before2) || got[0] != before2[0] || got[1] != before2[1] {
		t.Fatalf("AddEdge corrupted neighbor row: %v, want %v", got, before2)
	}
	if !g.HasEdge(1, 4) || !g.HasEdge(4, 1) {
		t.Fatal("thawed edge missing")
	}
	g.SortAdjacency()
	if !g.Frozen() {
		t.Fatal("re-freeze failed")
	}
	if got := g.Neighbors(1); len(got) != 3 || got[2] != 4 {
		t.Fatalf("refrozen Neighbors(1) = %v", got)
	}
	// The batched counts stay exact across the thaw/refreeze cycle.
	requireKHopCounts(t, "refrozen", g, 2)
}

// TestWalkerBFSInto: the allocation-free full-BFS variants match BFS and
// BFSPaths across repeated reuse of one walker.
func TestWalkerBFSInto(t *testing.T) {
	net := nettest.Grid("onehole", 200, 6.0, 2)
	g := net.Graph
	w := graph.NewWalker(g)
	dist := make([]int32, g.N())
	parent := make([]int32, g.N())
	for _, src := range []int{0, g.N() / 2, g.N() - 1} {
		w.BFSInto(src, dist)
		want := g.BFS(src)
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("BFSInto(%d): dist[%d] = %d, want %d", src, v, dist[v], want[v])
			}
		}
		w.BFSPathsInto(src, dist, parent)
		wd, wp := g.BFSPaths(src)
		for v := range wd {
			if dist[v] != wd[v] {
				t.Fatalf("BFSPathsInto(%d): dist[%d] mismatch", src, v)
			}
			if dist[v] != graph.Unreachable && v != src {
				p := parent[v]
				if p == graph.Unreachable || dist[p]+1 != dist[v] {
					t.Fatalf("BFSPathsInto(%d): bad parent of %d", src, v)
				}
			}
		}
		_ = wp
	}
}
