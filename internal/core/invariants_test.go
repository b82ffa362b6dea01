package core

import (
	"runtime"
	"sort"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
)

// TestExtractFloodInvariants checks the flooding stages of a full pipeline
// run against brute-force single-source recomputation, on the four n=900
// shapes, a field below 512 nodes, a K=1 run, a K > L run and a path on
// which the min-site guard shrinks K to 1 (the last two take the weighted
// centrality sweep instead of the sums the ball sizing pushes):
//
//   - KHopSize[v] = |N_K(v)| at the effective K;
//   - LCentrality[v] and Index[v] equal the Def. 3-4 values formed from an
//     integer L-walk sum and count before one float64 division;
//   - DistToSite[v] is dmin(v), the distance to the nearest site, and
//     CellOf[v] the lowest-ID site at that distance;
//   - node v holds a record (s, d) iff d = dist_s(v) <= dmin(v)+Alpha, its
//     records are sorted by site, and the parent of a d > 0 record is the
//     lowest-ID neighbor at distance d-1 from s that also records s.
func TestExtractFloodInvariants(t *testing.T) {
	type fieldCase struct {
		name, shape string
		n           int
		k, l        int
	}
	cases := []fieldCase{
		{"window", "window", 900, 4, 4},
		{"onehole", "onehole", 900, 4, 4},
		{"twoholes", "twoholes", 900, 4, 4},
		{"spiral", "spiral", 900, 4, 4},
		{"small-onehole", "onehole", 300, 4, 4},
		{"k1-window", "window", 900, 1, 4},
		{"k5l3-window", "window", 900, 5, 3},
		{"path", "", 60, 4, 4},
	}
	for _, c := range cases {
		var g *graph.Graph
		if c.shape == "" {
			g = pathGraph(c.n)
		} else {
			g = nettest.Grid(c.shape, c.n, 6.5, 1).Graph
		}
		if c.n < 512 && g.N() >= 512 {
			t.Fatalf("%s: field has %d nodes, want < 512", c.name, g.N())
		}
		p := DefaultParams()
		p.K, p.L = c.k, c.l
		res, err := NewExtractor(g).Extract(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.shape == "" && res.EffectiveK != 1 {
			t.Fatalf("%s: EffectiveK = %d, want the min-site guard to reach 1", c.name, res.EffectiveK)
		}
		requireFloodInvariants(t, c.name, g, p, res)
	}
}

// pathGraph is the n-node path 0-1-...-(n-1).
func pathGraph(n int) *graph.Graph {
	edges := make([][2]int32, n-1)
	for v := range edges {
		edges[v] = [2]int32{int32(v), int32(v + 1)}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// requireFloodInvariants is the brute-force oracle of
// TestExtractFloodInvariants.
func requireFloodInvariants(t *testing.T, name string, g *graph.Graph, p Params, res *Result) {
	t.Helper()
	n := g.N()
	w := graph.NewWalker(g)
	for v := 0; v < n; v++ {
		if want := g.KHopCount(v, res.EffectiveK); res.KHopSize[v] != want {
			t.Fatalf("%s: KHopSize[%d] = %d, want %d", name, v, res.KHopSize[v], want)
		}
	}
	for v := 0; v < n; v++ {
		sum, count := res.KHopSize[v], 1
		w.Walk(v, p.L, func(u, _ int32) {
			sum += res.KHopSize[u]
			count++
		})
		cent := float64(sum) / float64(count)
		if res.LCentrality[v] != cent {
			t.Fatalf("%s: LCentrality[%d] = %v, want %v", name, v, res.LCentrality[v], cent)
		}
		if idx := (float64(res.KHopSize[v]) + cent) / 2; res.Index[v] != idx {
			t.Fatalf("%s: Index[%d] = %v, want %v", name, v, res.Index[v], idx)
		}
	}

	dist := make(map[int32][]int32, len(res.Sites))
	for _, s := range res.Sites {
		dist[s] = g.BFS(int(s))
	}
	dmin := make([]int32, n)
	for v := 0; v < n; v++ {
		best, cell := graph.Unreachable, int32(-1)
		for _, s := range res.Sites { // ascending: the first minimum wins
			if d := dist[s][v]; d != graph.Unreachable && (best == graph.Unreachable || d < best) {
				best, cell = d, s
			}
		}
		dmin[v] = best
		if res.DistToSite[v] != best || res.CellOf[v] != cell {
			t.Fatalf("%s: node %d in cell %d at %d, want %d at %d", name, v, res.CellOf[v], res.DistToSite[v], cell, best)
		}
	}
	recorded := func(s int32, v int32) bool {
		d := dist[s][v]
		return d != graph.Unreachable && d <= dmin[v]+p.Alpha
	}
	for v := int32(0); v < int32(n); v++ {
		var want []SiteDist
		for _, s := range res.Sites {
			if !recorded(s, v) {
				continue
			}
			d := dist[s][v]
			parent := v
			if d > 0 {
				parent = -1
				for _, u := range g.Neighbors(int(v)) {
					if dist[s][u] == d-1 && recorded(s, u) && (parent < 0 || u < parent) {
						parent = u
					}
				}
			}
			want = append(want, SiteDist{Site: s, D: d, Parent: parent})
		}
		got := res.Records[v]
		if len(got) != len(want) {
			t.Fatalf("%s: node %d has %d records, want %d: %+v vs %+v", name, v, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Records[%d][%d] = %+v, want %+v", name, v, i, got[i], want[i])
			}
		}
	}
}

// TestExtractSchedulerDeterminism: results are bit-identical whatever the
// worker count — the degree-weighted chunk
// scheduler changes only which goroutine computes what, never the values or
// their merge order. The ~3·10^4-node window field is large enough that
// every chunked pass of coarse and refine splits at two workers — the pair
// walk into two chunks, the end-node floods into at least two waves — so
// three and four workers move each seam somewhere else; its edges (pair,
// connector, path, end nodes, segment count), loops and skeletons must
// all equal the single-worker run's.
func TestExtractSchedulerDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range []struct {
		name string
		n    int
		deg  float64
	}{{"onehole", 900, 6.5}, {"spiral", 900, 6.5}, {"window", 30_000, 7}} {
		g := nettest.Grid(c.name, c.n, c.deg, 1).Graph
		p := DefaultParams()
		var first *Result
		for _, procs := range []int{1, 2, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			res, err := NewExtractor(g).Extract(p)
			if err != nil {
				t.Fatalf("%s/procs=%d: %v", c.name, procs, err)
			}
			if procs == 1 {
				first = res
				continue
			}
			requireEqualResults(t, c.name+"/procs"+itoa(procs), res, first)
		}
		if c.n < 30_000 {
			continue
		}
		ends := 0
		for _, e := range first.Edges {
			ends++
			if e.EndNodes[0] != e.EndNodes[1] {
				ends++
			}
		}
		// A wave floods one 64-end batch per worker; even four workers
		// must need two waves.
		if len(first.Edges) < 2 || ends <= 4*64 {
			t.Fatalf("%s: too small to split: %d pairs, at most %d ends", c.name, len(first.Edges), ends)
		}
	}
}

// requireEqualResults asserts deep equality of every deterministic Result
// field between two runs.
func requireEqualResults(t *testing.T, name string, w, b *Result) {
	t.Helper()
	if w.EffectiveK != b.EffectiveK || w.EffectiveScope != b.EffectiveScope {
		t.Fatalf("%s: effective radii differ: (%d,%d) vs (%d,%d)",
			name, w.EffectiveK, w.EffectiveScope, b.EffectiveK, b.EffectiveScope)
	}
	for v := range w.KHopSize {
		if w.KHopSize[v] != b.KHopSize[v] {
			t.Fatalf("%s: KHopSize[%d] differs: %d vs %d", name, v, w.KHopSize[v], b.KHopSize[v])
		}
		if w.LCentrality[v] != b.LCentrality[v] {
			t.Fatalf("%s: LCentrality[%d] differs: %v vs %v", name, v, w.LCentrality[v], b.LCentrality[v])
		}
		if w.Index[v] != b.Index[v] {
			t.Fatalf("%s: Index[%d] differs: %v vs %v", name, v, w.Index[v], b.Index[v])
		}
		if w.CellOf[v] != b.CellOf[v] {
			t.Fatalf("%s: CellOf[%d] differs: %d vs %d", name, v, w.CellOf[v], b.CellOf[v])
		}
		if w.DistToSite[v] != b.DistToSite[v] {
			t.Fatalf("%s: DistToSite[%d] differs: %d vs %d", name, v, w.DistToSite[v], b.DistToSite[v])
		}
		if len(w.Records[v]) != len(b.Records[v]) {
			t.Fatalf("%s: Records[%d] lengths differ: %d vs %d", name, v, len(w.Records[v]), len(b.Records[v]))
		}
		for i := range w.Records[v] {
			if w.Records[v][i] != b.Records[v][i] {
				t.Fatalf("%s: Records[%d][%d] differs: %+v vs %+v", name, v, i, w.Records[v][i], b.Records[v][i])
			}
		}
	}
	if !equalInt32s(w.Sites, b.Sites) {
		t.Fatalf("%s: site sets differ: %d vs %d sites", name, len(w.Sites), len(b.Sites))
	}
	if !equalInt32s(w.SegmentNodes, b.SegmentNodes) {
		t.Fatalf("%s: segment node sets differ", name)
	}
	if !equalInt32s(w.VoronoiNodes, b.VoronoiNodes) {
		t.Fatalf("%s: Voronoi node sets differ", name)
	}
	if !equalInt32s(w.Boundary, b.Boundary) {
		t.Fatalf("%s: boundary sets differ", name)
	}
	if len(w.Edges) != len(b.Edges) {
		t.Fatalf("%s: edge counts differ: %d vs %d", name, len(w.Edges), len(b.Edges))
	}
	for i := range w.Edges {
		we, be := w.Edges[i], b.Edges[i]
		if we.Pair != be.Pair || we.Connector != be.Connector ||
			we.EndNodes != be.EndNodes || we.SegmentCount != be.SegmentCount {
			t.Fatalf("%s: Edges[%d] differs: %+v vs %+v", name, i, we, be)
		}
		if !equalInt32s(we.Path, be.Path) {
			t.Fatalf("%s: Edges[%d].Path differs", name, i)
		}
	}
	requireEqualSkeletons(t, name+": coarse", w.Coarse, b.Coarse)
	requireEqualSkeletons(t, name+": skeleton", w.Skeleton, b.Skeleton)
	if len(w.Loops) != len(b.Loops) {
		t.Fatalf("%s: loop counts differ: %d vs %d", name, len(w.Loops), len(b.Loops))
	}
	for i := range w.Loops {
		wl, bl := w.Loops[i], b.Loops[i]
		if wl.Kind != bl.Kind || wl.Hub != bl.Hub || !equalInt32s(wl.Sites, bl.Sites) {
			t.Fatalf("%s: Loops[%d] differs: %+v vs %+v", name, i, wl, bl)
		}
	}
}

// requireEqualSkeletons asserts two skeletons agree on nodes and adjacency.
func requireEqualSkeletons(t *testing.T, name string, w, b *Skeleton) {
	t.Helper()
	if !equalInt32s(w.Nodes(), b.Nodes()) {
		t.Fatalf("%s node sets differ", name)
	}
	for _, v := range w.Nodes() {
		wn := append([]int32(nil), w.Neighbors(v)...)
		bn := append([]int32(nil), b.Neighbors(v)...)
		sort.Slice(wn, func(i, j int) bool { return wn[i] < wn[j] })
		sort.Slice(bn, func(i, j int) bool { return bn[i] < bn[j] })
		if !equalInt32s(wn, bn) {
			t.Fatalf("%s adjacency differs at node %d: %v vs %v", name, v, wn, bn)
		}
	}
}

// TestExtractIdentifyWorkCounters: the identify stage reports the BFS work
// its batched floods drained from the pooled walkers.
func TestExtractIdentifyWorkCounters(t *testing.T) {
	g := nettest.Grid("window", 900, 6.5, 2).Graph
	res, err := NewExtractor(g).Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	id, ok := res.Stats.Phase("identify")
	if !ok {
		t.Fatal("identify phase missing from stats")
	}
	if id.Sweeps == 0 || id.Visited == 0 {
		t.Fatalf("identify phase work counters empty: sweeps=%d visited=%d", id.Sweeps, id.Visited)
	}
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
