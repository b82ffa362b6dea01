package graph_test

import (
	"math"
	"slices"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
	"bfskel/internal/radio"
	"bfskel/internal/shapes"
)

// equivNetworks builds one small UDG and one QUDG network per deployment
// shape — the full shape catalogue times both link models the paper
// evaluates on — plus the hub graph, whose hub outgrows the frontier list
// in the middle of a level.
func equivNetworks(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	nets := map[string]*graph.Graph{"hub": hubGraph()}
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
	b := graph.New(600)
	// Component A: path 0..249. Component B: cycle 250..549. 550..599 isolated.
	for i := 0; i+1 < 250; i++ {
		b.AddEdge(i, i+1)
	}
	for i := 250; i < 550; i++ {
		next := i + 1
		if next == 550 {
			next = 250
		}
		b.AddEdge(i, next)
	}
	g := b.Freeze()
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
	b := graph.New(700)
	for i := 0; i+1 < 700; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Freeze()
	for _, c := range g.AllKHopCounts(0) {
		if c != 0 {
			t.Fatalf("k=0 count %d", c)
		}
	}
	for _, kern := range []graph.Kernel{graph.KernelWalker, graph.KernelBatched} {
		g.BallSizesIntoKernel(kern, 0, ballRows(g.N(), 0), nil, nil)
	}
	empty := graph.New(0).Freeze()
	if got := empty.AllKHopCounts(3); len(got) != 0 {
		t.Fatalf("empty graph counts = %v", got)
	}
}

// TestKernelSmall: the all-sources floods are exact below one 64-source
// batch and at k = 1. Each entry point is checked against per-node
// KHopCount and Walker sweeps.
func TestKernelSmall(t *testing.T) {
	// A 40-node ring with chords: fewer sources than one batch.
	small := graph.New(40)
	for i := 0; i < 40; i++ {
		small.AddEdge(i, (i+1)%40)
		if i%5 == 0 {
			small.AddEdge(i, (i+13)%40)
		}
	}
	grid := nettest.Grid("window", 400, 6.5, 3).Graph
	for name, g := range map[string]*graph.Graph{"small": small.Freeze(), "window": grid} {
		for _, k := range []int{1, 2, 4} {
			for entry := 0; entry < 3; entry++ {
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
			}
		}
	}
}

// TestBatchBallSizes: the arbitrary-source entry BatchBallSizesInto matches
// per-source KHopCount at every radius, splits across batch boundaries
// correctly and leaves unlisted rows alone.
func TestBatchBallSizes(t *testing.T) {
	net := nettest.Grid("window", 400, 6.5, 3)
	g := net.Graph
	n := g.N()
	sources := make([]int32, 0, 150)
	for v := 0; v < 140 && 2*v < n; v++ { // spans three 64-wide batches
		sources = append(sources, int32(2*v))
	}
	const k = 4
	out := make([]int32, n*k)
	for i := range out {
		out[i] = -1
	}
	g.BatchBallSizesInto(k, sources, out, nil, nil, nil)
	listed := make([]bool, n)
	for _, s := range sources {
		listed[s] = true
		for r := 1; r <= k; r++ {
			if want := g.KHopCount(int(s), r); int(out[int(s)*k+r-1]) != want {
				t.Fatalf("source %d r=%d: got %d, want %d", s, r, out[int(s)*k+r-1], want)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !listed[v] && out[v*k] != -1 {
			t.Fatalf("unlisted row %d written", v)
		}
	}
	g.BatchBallSizesInto(3, nil, nil, nil, nil, nil) // no sources: a no-op
}

// TestFreezeSemantics: Builder.Freeze assembles rows sorted whatever the
// insertion order and orientation, hands out capacity-capped rows (an
// append to one cannot clobber the next), and rejects the edge lists
// FromEdges rejects.
func TestFreezeSemantics(t *testing.T) {
	b := graph.New(5)
	b.AddEdge(3, 2)
	b.AddEdge(1, 4)
	b.AddEdge(2, 1)
	b.AddEdge(0, 1)
	g := b.Freeze()
	if g.N() != 5 || g.NumEdges() != 4 {
		t.Fatalf("N=%d E=%d", g.N(), g.NumEdges())
	}
	if got := g.Neighbors(1); !slices.Equal(got, []int32{0, 2, 4}) {
		t.Fatalf("Neighbors(1) = %v, want [0 2 4]", got)
	}
	before2 := slices.Clone(g.Neighbors(2))
	_ = append(g.Neighbors(1), 3)
	if got := g.Neighbors(2); !slices.Equal(got, before2) {
		t.Fatalf("append to row 1 clobbered row 2: %v, want %v", got, before2)
	}
	requireKHopCounts(t, "builder", g, 2)

	for name, e := range map[string][2]int{"self-loop": {2, 2}, "duplicate": {1, 0}, "out of range": {0, 5}} {
		bad := graph.New(5)
		bad.AddEdge(0, 1)
		bad.AddEdge(e[0], e[1])
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Freeze did not panic", name)
				}
			}()
			bad.Freeze()
		}()
	}
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
