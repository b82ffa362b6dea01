package graph_test

import (
	"runtime"
	"sort"
	"testing"

	"bfskel/internal/graph"
)

// TestFlatBallMatrixMatchesWalker: every ball-size entry point equals the
// per-node walker rows at GOMAXPROCS 1 and 4, on every shape and both link
// models: the engine's flat int32 matrix (BallSizesAndSumsInto), the
// [][]int adapter (BallSizesIntoKernel), the logged adapter, the
// node-indexed patch (BatchBallSizesInto, over a descending odd-node list
// that leaves the other rows alone) and AllKHopCounts.
func TestFlatBallMatrixMatchesWalker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	nets := equivNetworks(t)
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := nets[name]
		n := g.N()
		var odd []int32
		for v := n - 1; v >= 0; v-- {
			if v%2 == 1 {
				odd = append(odd, int32(v))
			}
		}
		for _, k := range []int{1, 3, 5} {
			want := ballRows(n, k)
			g.BallSizesIntoKernel(graph.KernelWalker, k, want, nil, nil)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				flat := make([]int32, n*k)
				if g.BallSizesAndSumsInto(k, 0, 0, flat, nil, nil, nil) {
					t.Fatalf("%s k=%d: pushed sums with sumK = 0", name, k)
				}
				rows := ballRows(n, k)
				g.BallSizesIntoKernel(graph.KernelBatched, k, rows, nil, nil)
				logged := ballRows(n, k)
				var lg graph.VisitLog
				g.BallSizesIntoKernelLogged(graph.KernelBatched, k, k, logged, &lg, nil, nil)
				patch := make([]int32, n*k)
				for i := range patch {
					patch[i] = -1
				}
				g.BatchBallSizesInto(k, odd, patch, nil, nil, nil)
				counts := g.AllKHopCounts(k)
				for v := 0; v < n; v++ {
					if counts[v] != want[v][k-1] {
						t.Fatalf("%s k=%d procs=%d: AllKHopCounts[%d] = %d, want %d", name, k, procs, v, counts[v], want[v][k-1])
					}
					for r := 0; r < k; r++ {
						w := want[v][r]
						p := int(patch[v*k+r])
						if v%2 == 0 {
							p = w
							if patch[v*k+r] != -1 {
								t.Fatalf("%s k=%d procs=%d: unlisted row %d written", name, k, procs, v)
							}
						}
						if int(flat[v*k+r]) != w || rows[v][r] != w || logged[v][r] != w || p != w {
							t.Fatalf("%s k=%d procs=%d: ball[%d][%d]: flat %d, rows %d, logged %d, patch %d, walker %d",
								name, k, procs, v, r, flat[v*k+r], rows[v][r], logged[v][r], p, w)
						}
					}
				}
			}
		}
	}
}

// TestPrunedBatchMinIDParentFromSeen pins the parent rule of PrunedBatch on
// a graph built so that each wrong reading picks a different parent. Two
// sources, 10 and 11, both reach 3 and 5 at hop 1, and 7 and 2 at hop 2. At
// 7 the candidates in ID order are 0 (adjacent to source 10, but its bound
// admits nothing, so it never carries a bit), 2 (settled at the same level
// as 7, so its bits are not yet seen when 7's parent is resolved), then 3
// and 5 (both settled at hop 1: the tie goes to 3).
func TestPrunedBatchMinIDParentFromSeen(t *testing.T) {
	b := graph.New(13)
	for _, e := range [][2]int{
		{10, 3}, {10, 5}, {10, 0}, {11, 3}, {11, 5},
		{3, 7}, {5, 7}, {0, 7}, {2, 3}, {2, 7},
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Freeze()
	bound := make([]int32, g.N())
	for v := range bound {
		bound[v] = 5
	}
	bound[0] = -1
	got := graph.NewWalker(g).PrunedBatch([]int32{10, 11}, bound, 0, nil)
	sortVisits(got)
	want := []graph.PrunedVisit{
		{V: 2, Src: 10, D: 2, Parent: 3}, {V: 3, Src: 10, D: 1, Parent: 10},
		{V: 5, Src: 10, D: 1, Parent: 10}, {V: 7, Src: 10, D: 2, Parent: 3},
		{V: 11, Src: 10, D: 2, Parent: 3},
		{V: 2, Src: 11, D: 2, Parent: 3}, {V: 3, Src: 11, D: 1, Parent: 11},
		{V: 5, Src: 11, D: 1, Parent: 11}, {V: 7, Src: 11, D: 2, Parent: 3},
		{V: 10, Src: 11, D: 2, Parent: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("%d visits, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
