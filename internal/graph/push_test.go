package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bfskel/internal/radio"
)

// checkPushedSums compares BallSizesAndSumsInto at GOMAXPROCS 1 and 4 with
// the walker oracles: the ball rows with per-node walker sweeps, the sums
// with BallWeightedSumsInto(KernelWalker) over the rows' sumK column. At
// each GOMAXPROCS it also runs checkSumRepair with the same radii.
func checkPushedSums(t *testing.T, name string, g *Graph, k, sumK, sumL int, seed int64) {
	t.Helper()
	n := g.N()
	want := pushRows(n, k)
	g.BallSizesIntoKernel(KernelWalker, k, want, nil, nil)
	weight := make([]int, n)
	for v := range weight {
		weight[v] = want[v][sumK-1]
	}
	wantSums := make([]int, n)
	g.BallWeightedSumsInto(KernelWalker, sumL, weight, wantSums, nil, nil)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		balls := make([]int32, n*k)
		sums := make([]int, n)
		for v := range sums {
			sums[v] = -1 // overwritten, never accumulated into
		}
		if !g.BallSizesAndSumsInto(k, sumK, sumL, balls, sums, nil, nil) {
			t.Fatalf("%s k=%d K=%d L=%d: sums not pushed", name, k, sumK, sumL)
		}
		for v := 0; v < n; v++ {
			for r := range want[v] {
				if got := int(balls[v*k+r]); got != want[v][r] {
					t.Fatalf("%s k=%d K=%d L=%d procs=%d: ball[%d][%d] = %d, want %d",
						name, k, sumK, sumL, procs, v, r, got, want[v][r])
				}
			}
			if sums[v] != wantSums[v] {
				t.Fatalf("%s k=%d K=%d L=%d procs=%d: sum[%d] = %d, want %d",
					name, k, sumK, sumL, procs, v, sums[v], wantSums[v])
			}
		}
		checkSumRepair(t, fmt.Sprintf("%s k=%d L=%d procs=%d", name, k, sumL, procs), g, k, sumK, sumL, rand.New(rand.NewSource(seed)))
	}
}

// checkSumRepair checks the pass the incremental update floods with —
// BatchBallSizesInto with a SumRepair — against one Walker.Walk per source
// at flood radius k: the listed ball rows (unlisted rows left alone) and
// the sums, patched from random prior values with random Old sizes and a
// random fresh set among the sources. It runs at K = sumK, pushed during the ball flood
// when sumK <= sumL, and at K = k, which takes the second flood when
// k > sumL; each over a strided source subset in ID order and a random one
// in batch (Z-curve) order. Dead nodes are sources like any other.
func checkSumRepair(t *testing.T, name string, g *Graph, k, sumK, sumL int, rng *rand.Rand) {
	t.Helper()
	n := g.N()
	order := g.BatchOrder()
	var byID, byZ []int32
	for v := 0; v < n; v += 3 {
		byID = append(byID, int32(v))
	}
	for i := 0; i < n; i++ {
		v := int32(i)
		if order != nil {
			v = order[i]
		}
		if i == 0 || rng.Intn(3) == 0 {
			byZ = append(byZ, v)
		}
	}
	w := NewWalker(g)
	for _, K := range []int{sumK, k} {
		for _, src := range []struct {
			order string
			list  []int32
		}{{"id", byID}, {"z", byZ}} {
			if len(src.list) == 0 {
				continue
			}
			listed := make([]bool, n)
			for _, s := range src.list {
				listed[s] = true
			}
			rep := SumRepair{K: K, L: sumL, Sums: make([]int, n), Old: make([]int, n), Dist: make([]int32, n)}
			want := make([]int, n)
			for v := 0; v < n; v++ {
				rep.Sums[v] = rng.Intn(100) - 50
				rep.Old[v] = rng.Intn(40)
				switch {
				case listed[v]:
					rep.Dist[v] = int32(rng.Intn(sumL+4) - 1)
				case rng.Intn(2) == 0:
					rep.Dist[v] = Unreachable
				default:
					rep.Dist[v] = int32(sumL + 1 + rng.Intn(3))
				}
			}
			for v := range want {
				want[v] = rep.Sums[v]
				if rep.fresh(int32(v)) {
					want[v] = 0
					w.Walk(v, sumL, func(u, _ int32) { want[v] += rep.Old[u] })
				}
			}
			balls := make([]int32, n*k)
			for i := range balls {
				balls[i] = -7
			}
			wantRows := make([]int32, n*k)
			copy(wantRows, balls)
			for _, s := range src.list {
				row := wantRows[int(s)*k : (int(s)+1)*k]
				clear(row)
				w.Walk(int(s), k, func(_, d int32) {
					for r := d - 1; int(r) < k; r++ {
						row[r]++
					}
				})
				newK := int(row[K-1])
				w.Walk(int(s), sumL, func(u, _ int32) { want[u] += newK - rep.Old[s] })
			}
			g.BatchBallSizesInto(k, src.list, balls, &rep, nil, nil)
			for i := range balls {
				if balls[i] != wantRows[i] {
					t.Fatalf("%s %s-order K=%d: ball[%d][%d] = %d, want %d",
						name, src.order, K, i/k, i%k, balls[i], wantRows[i])
				}
			}
			for v := range want {
				if rep.Sums[v] != want[v] {
					t.Fatalf("%s %s-order K=%d of %d sources: sum[%d] = %d, want %d (fresh %v)",
						name, src.order, K, len(src.list), v, rep.Sums[v], want[v], rep.fresh(int32(v)))
				}
			}
		}
	}
}

func pushRows(n, k int) [][]int {
	flat := make([]int, n*k)
	rows := make([][]int, n)
	for v := range rows {
		rows[v] = flat[v*k : (v+1)*k : (v+1)*k]
	}
	return rows
}

// TestPushedSumsMatchWalker: the sums the ball-sizing batches push equal a
// per-node weighted walk on a field whose size is not a multiple of 64,
// the same field with tombstones (the churn overlay the incremental update
// floods), several components with isolated nodes, and paths on which
// every source's frontier dies before L; each at a flood radius equal to L
// (the push fused with the final clear) and above it (the push at the end
// of level L). The incremental update's repair pass is checked on each
// too (checkSumRepair).
func TestPushedSumsMatchWalker(t *testing.T) {
	field := func() *Graph {
		return Build(uniformPoints(rand.New(rand.NewSource(1)), 1000, 85), radio.UDG{R: 4}, 1)
	}
	tomb := field()
	var dead []int32
	for v := 0; v < tomb.N(); v += 9 {
		dead = append(dead, int32(v))
	}
	tomb.RemoveNodes(dead)

	parts := New(600)
	// A path 0..249, a cycle 250..549, and 550..599 isolated.
	for i := 0; i+1 < 250; i++ {
		parts.AddEdge(i, i+1)
	}
	for i := 250; i < 550; i++ {
		parts.AddEdge(i, 250+(i-249)%300)
	}

	path := func(n int) *Graph {
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		return g.Freeze()
	}
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"field", field()},
		{"tombstoned", tomb},
		{"components", parts.Freeze()},
		{"path5", path(5)},
		{"path70", path(70)},
	}
	radii := [][3]int{{4, 4, 4}, {4, 2, 4}, {6, 3, 4}, {6, 6, 6}, {5, 1, 1}}
	// K > L cannot push: the ball sizes still come out, the sums are left.
	g := graphs[0].g
	balls, sums := make([]int32, g.N()*5), []int{-1}
	if g.BallSizesAndSumsInto(5, 5, 3, balls, sums, nil, nil) || sums[0] != -1 {
		t.Fatal("K > L: sums pushed")
	}
	if want := g.KHopCount(0, 5); int(balls[4]) != want {
		t.Fatalf("K > L: ball[0][4] = %d, want %d", balls[4], want)
	}
	for _, c := range graphs {
		if c.g.N()%64 == 0 {
			t.Fatalf("%s: %d nodes fill whole batches", c.name, c.g.N())
		}
		for _, r := range radii {
			checkPushedSums(t, c.name, c.g, r[0], r[1], r[2], int64(r[0]*7+r[2]))
		}
	}
}

// FuzzPushedSums checks the pushed centrality sums and the repair pass
// against the walker oracle on FuzzBuild's generated fields, with
// K <= L drawn from 1..6, the flood radius up to two hops past L, and every
// fifth node tombstoned when kind asks for it.
func FuzzPushedSums(f *testing.F) {
	f.Add([]byte("connectivity graphs from radio models"), uint8(1), 0.5, int64(2), uint8(3), uint8(3), uint8(0))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 0, 9, 3, 3, 3, 4, 4}, uint8(4), 1.0, int64(1), uint8(1), uint8(5), uint8(1))
	f.Add([]byte("sparse buckets: far more cells than points"), uint8(2), 2.0, int64(3), uint8(5), uint8(2), uint8(2))
	f.Add([]byte{}, uint8(0), 1.0, int64(5), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, scale float64, seed int64, kb, lb, extra uint8) {
		pts, m := fuzzField(data, kind, scale)
		g := Build(pts, m, seed)
		if kind&4 != 0 && g.N() > 0 {
			var dead []int32
			for v := 0; v < g.N(); v += 5 {
				dead = append(dead, int32(v))
			}
			g.RemoveNodes(dead)
		}
		sumK, sumL := 1+int(kb%6), 1+int(lb%6)
		if sumK > sumL {
			sumK, sumL = sumL, sumK
		}
		checkPushedSums(t, fmt.Sprintf("%s n=%d", m, g.N()), g, sumL+int(extra%3), sumK, sumL, seed)
	})
}
