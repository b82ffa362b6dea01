package graph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bfskel/internal/geom"
	"bfskel/internal/radio"
)

// oracleBuild is the O(n²) reference for Build: the same link predicate
// (maxR cut, LinkProb, pair coin with i < j) over every pair, with rows
// filled in pair order, which leaves each row ascending.
func oracleBuild(pts []geom.Point, m radio.Model, seed int64) (offsets, targets []int32, edges int) {
	rows := make([][]int32, len(pts))
	if maxR := m.MaxRange(); maxR > 0 {
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				d2 := pts[i].Dist2(pts[j])
				if d2 > maxR*maxR {
					continue
				}
				p := m.LinkProb(math.Sqrt(d2))
				if p > 0 && (p >= 1 || pairCoin(seed, i, j) < p) {
					rows[i] = append(rows[i], int32(j))
					rows[j] = append(rows[j], int32(i))
					edges++
				}
			}
		}
	}
	offsets, targets = oracleCSR(rows)
	return offsets, targets, edges
}

// oracleCSR lays rows out back to back.
func oracleCSR(rows [][]int32) (offsets, targets []int32) {
	offsets = make([]int32, 1, len(rows)+1)
	targets = []int32{}
	for _, row := range rows {
		targets = append(targets, row...)
		offsets = append(offsets, int32(len(targets)))
	}
	return offsets, targets
}

// checkCSR compares g with the reference CSR exactly, including that every
// row view is the capacity-capped window the churn overlay relies on.
func checkCSR(t *testing.T, name string, g *Graph, offsets, targets []int32, edges int) {
	t.Helper()
	if g.N() != len(offsets)-1 || g.NumEdges() != edges {
		t.Fatalf("%s: %d nodes, %d edges; want %d, %d", name, g.N(), g.NumEdges(), len(offsets)-1, edges)
	}
	if !slices.Equal(g.offsets, offsets) || !slices.Equal(g.targets, targets) {
		t.Fatalf("%s: CSR differs from the oracle\noffsets %v\n   want %v\ntargets %v\n   want %v",
			name, g.offsets, offsets, g.targets, targets)
	}
	for v := 0; v < g.N(); v++ {
		lo, hi := offsets[v], offsets[v+1]
		if row := g.Neighbors(v); len(row) != int(hi-lo) || cap(row) != int(hi-lo) ||
			(len(row) > 0 && &row[0] != &g.targets[lo]) {
			t.Fatalf("%s: row %d is not the capped CSR window [%d:%d]", name, v, lo, hi)
		}
	}
}

// checkBuild compares Build with the oracle, FromEdges over the oracle's
// edges (reoriented and shuffled) with the same CSR, and checks that the
// batch order is a permutation of the nodes (nil only for the sparse
// fallback or a model that links nothing).
func checkBuild(t *testing.T, name string, pts []geom.Point, m radio.Model, seed int64) {
	t.Helper()
	offsets, targets, edges := oracleBuild(pts, m, seed)
	g := Build(pts, m, seed)
	checkCSR(t, name, g, offsets, targets, edges)

	var list [][2]int32
	for v := 0; v < len(pts); v++ {
		for _, u := range targets[offsets[v]:offsets[v+1]] {
			if u > int32(v) {
				list = append(list, [2]int32{u, int32(v)})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
	for k := range list {
		if rng.Intn(2) == 0 {
			list[k] = [2]int32{list[k][1], list[k][0]}
		}
	}
	fe, err := FromEdges(len(pts), list)
	if err != nil {
		t.Fatalf("%s: FromEdges: %v", name, err)
	}
	checkCSR(t, name+"/FromEdges", fe, offsets, targets, edges)

	order := g.BatchOrder()
	if order == nil {
		if len(pts) > 0 && m.MaxRange() > 0 && newCellIndex(pts, m.MaxRange()).bucket == nil {
			t.Fatalf("%s: dense grid but no batch order", name)
		}
		return
	}
	seen := make([]bool, len(pts))
	for _, v := range order {
		if seen[v] {
			t.Fatalf("%s: batch order repeats node %d", name, v)
		}
		seen[v] = true
	}
}

func uniformPoints(rng *rand.Rand, n int, side float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

// TestBuildMatchesOracle: Build equals the brute-force graph on all three
// radio models and on the degenerate inputs the cell index special-cases.
func TestBuildMatchesOracle(t *testing.T) {
	models := []radio.Model{
		radio.UDG{R: 4},
		radio.QUDG{R: 3, Alpha: 0.4, P: 0.5},
		radio.LogNormal{R: 3, Epsilon: 2},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := uniformPoints(rng, 200+rng.Intn(200), 40)
		for _, m := range models {
			checkBuild(t, m.String(), pts, m, seed)
		}
	}

	// Sparse-bucket fallback: two tight clusters in a box spanning far
	// more cells than points.
	rng := rand.New(rand.NewSource(7))
	sparse := uniformPoints(rng, 30, 5)
	for _, p := range uniformPoints(rng, 30, 5) {
		sparse = append(sparse, geom.Pt(p.X+1e6, p.Y+1e6))
	}
	for _, m := range models {
		if newCellIndex(sparse, m.MaxRange()).bucket == nil {
			t.Fatalf("%v: sparse input did not take the hashed-bucket fallback", m)
		}
		checkBuild(t, "sparse "+m.String(), sparse, m, 3)
	}

	// Duplicate coordinates: coincident points link at distance 0.
	dup := make([]geom.Point, 0, 40)
	for i := 0; i < 40; i++ {
		dup = append(dup, geom.Pt(float64(i%4), float64(i%3)))
	}
	checkBuild(t, "duplicates", dup, radio.UDG{R: 1}, 1)
	checkBuild(t, "duplicates qudg", dup, radio.QUDG{R: 1, Alpha: 0.5, P: 0.5}, 1)

	checkBuild(t, "zero range", dup, radio.UDG{R: 0}, 1)
	checkBuild(t, "n=0", nil, radio.UDG{R: 1}, 1)
	checkBuild(t, "n=1", []geom.Point{geom.Pt(3, 4)}, radio.UDG{R: 1}, 1)
}

// TestBuildIndependentOfGOMAXPROCS: the chunked scan yields the same CSR and
// batch order for any worker count.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := uniformPoints(rng, 3000, 100)
	m := radio.QUDG{R: 3, Alpha: 0.3, P: 0.5}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := Build(pts, m, 5)
	runtime.GOMAXPROCS(4)
	four := Build(pts, m, 5)
	checkCSR(t, "GOMAXPROCS 4 vs 1", four, one.offsets, one.targets, one.NumEdges())
	if !slices.Equal(one.BatchOrder(), four.BatchOrder()) {
		t.Fatal("batch order depends on GOMAXPROCS")
	}
}

// oracleSubgraph is the induced subgraph over keep, rows sorted.
func oracleSubgraph(g *Graph, keep []int32) (offsets, targets []int32, edges int) {
	index := make(map[int32]int32, len(keep))
	for i, v := range keep {
		index[v] = int32(i)
	}
	rows := make([][]int32, len(keep))
	for i, v := range keep {
		for _, w := range g.Neighbors(int(v)) {
			if j, ok := index[w]; ok {
				rows[i] = append(rows[i], j)
			}
		}
		slices.Sort(rows[i])
		edges += len(rows[i])
	}
	offsets, targets = oracleCSR(rows)
	return offsets, targets, edges / 2
}

// TestSubgraphMatchesOracle: Subgraph equals the brute-force induced
// subgraph for ascending and shuffled keep, on a built graph and on a
// hand-built one, and carries the parent's batch order over.
func TestSubgraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	built := Build(uniformPoints(rng, 500, 30), radio.UDG{R: 3}, 3)
	b, linked := New(200), map[[2]int]bool{}
	for k := 0; k < 600; k++ {
		u, v := rng.Intn(200), rng.Intn(200)
		if u != v && !linked[[2]int{min(u, v), max(u, v)}] {
			linked[[2]int{min(u, v), max(u, v)}] = true
			b.AddEdge(u, v)
		}
	}
	hand := b.Freeze()
	for _, g := range []*Graph{built, hand} {
		for trial := 0; trial < 6; trial++ {
			var keep []int32
			for v := 0; v < g.N(); v++ {
				if rng.Intn(3) > 0 {
					keep = append(keep, int32(v))
				}
			}
			if trial%2 == 1 {
				rng.Shuffle(len(keep), func(a, b int) { keep[a], keep[b] = keep[b], keep[a] })
			}
			sub, orig := g.Subgraph(keep)
			offsets, targets, edges := oracleSubgraph(g, keep)
			checkCSR(t, "subgraph", sub, offsets, targets, edges)
			if !slices.Equal(orig, keep) {
				t.Fatal("orig differs from keep")
			}
			if g.BatchOrder() == nil {
				if sub.BatchOrder() != nil {
					t.Fatal("subgraph invented a batch order")
				}
				continue
			}
			var want []int32
			for _, v := range g.BatchOrder() {
				if i := slices.Index(keep, v); i >= 0 {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(sub.BatchOrder(), want) {
				t.Fatal("subgraph batch order is not the parent's restricted to keep")
			}
		}
	}
}

// FuzzBuild checks Build (and FromEdges over its edges) against the oracle
// on generated point sets: two bytes per point on a grid of pitch scale, so
// coincident points are common, a box wide against the range takes the
// sparse fallback, and kind picks UDG, QUDG, log-normal or a zero range.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 0, 9, 3}, uint8(0), 0.5, int64(1))
	f.Add([]byte("connectivity graphs from radio models"), uint8(1), 0.2, int64(2))
	f.Add([]byte("sparse buckets: far more cells than points"), uint8(2), 7.0, int64(3))
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint8(3), 1.0, int64(4))
	f.Add([]byte{}, uint8(0), 1.0, int64(5))
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, scale float64, seed int64) {
		pts, m := fuzzField(data, kind, scale)
		checkBuild(t, m.String(), pts, m, seed)
	})
}

// fuzzField decodes a fuzzer input into a deployment and a radio model:
// up to 512 points of two bytes each on a grid of pitch scale, and kind
// picking UDG, QUDG, log-normal or a zero range.
func fuzzField(data []byte, kind uint8, scale float64) ([]geom.Point, radio.Model) {
	if !(scale > 1e-3 && scale < 1e3) {
		scale = 1
	}
	n := min(len(data)/2, 512)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(data[2*i])*scale, float64(data[2*i+1])*scale)
	}
	const r = 4
	switch kind % 4 {
	case 0:
		return pts, radio.UDG{R: r}
	case 1:
		return pts, radio.QUDG{R: r, Alpha: 0.5, P: 0.4}
	case 2:
		return pts, radio.LogNormal{R: r, Epsilon: 2}
	default:
		return pts, radio.UDG{R: 0}
	}
}
