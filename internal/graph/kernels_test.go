package graph_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
)

// hubGraph joins a 40-node path (0..39) to the hub 40 of a 300-leaf star
// (41..340); the path's far end also touches two leaves. Low IDs sit on the
// path, so a batch's frontier lists path nodes before the hub and the hub's
// 301 neighbors arrive in the middle of a level, past the capacity the
// frontier list had grown to on the path.
func hubGraph() *graph.Graph {
	g := graph.New(341)
	for v := 0; v < 40; v++ {
		g.AddEdge(v, v+1)
	}
	for v := 41; v <= 340; v++ {
		g.AddEdge(40, v)
	}
	g.AddEdge(0, 41)
	g.AddEdge(0, 340)
	return g.Freeze()
}

// prunedNets builds a few topologies exercising the pruned and bounded reach
// kernels: a dense grid field, a field with a hole, a handmade disconnected
// graph, and the hub graph.
func prunedNets(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	nets := map[string]*graph.Graph{
		"window":  nettest.Grid("window", 240, 6.5, 1).Graph,
		"onehole": nettest.Grid("onehole", 240, 6.5, 1).Graph,
		"hub":     hubGraph(),
	}
	d := graph.New(120)
	for v := 0; v < 59; v++ { // path component
		d.AddEdge(v, v+1)
	}
	for v := 60; v < 110; v++ { // cycle component
		d.AddEdge(v, 60+(v-60+1)%50)
	}
	// 110..119 isolated
	nets["disconnected"] = d.Freeze()
	return nets
}

// testSources picks a spread of source nodes, more than one 64-batch worth
// on the larger nets, at most limit of them (0: no limit), the last two
// repeating the first two so a batch seeds a node twice.
func testSources(n, stride, limit int) []int32 {
	var out []int32
	for v := 0; v < n; v += stride {
		out = append(out, int32(v))
	}
	if limit > 0 && len(out) > limit-2 {
		out = out[:limit-2]
	}
	if len(out) >= 2 {
		out = append(out, out[0], out[1])
	}
	return out
}

// bruteDmin computes the multi-source hop distance to the nearest source.
func bruteDmin(g *graph.Graph, sources []int32) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	queue := append([]int32(nil), sources...)
	for _, s := range sources {
		dist[s] = 0
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// brutePruned runs the serial slack-pruned flood from one source and returns
// the visits with min-ID parents — the reference semantics for PrunedBatch.
func brutePruned(g *graph.Graph, src int32, bound []int32, slack int32) []graph.PrunedVisit {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	dist[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u] + 1
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] >= 0 {
				continue
			}
			if b := bound[v]; b >= 0 && d > b+slack {
				continue
			}
			dist[v] = d
			queue = append(queue, v)
		}
	}
	var out []graph.PrunedVisit
	for _, v := range queue[1:] { // seeds are not emitted
		parent := int32(-1)
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] == dist[v]-1 && (parent < 0 || u < parent) {
				parent = u
			}
		}
		out = append(out, graph.PrunedVisit{V: v, Src: src, D: dist[v], Parent: parent})
	}
	return out
}

func sortVisits(vs []graph.PrunedVisit) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Src != vs[j].Src {
			return vs[i].Src < vs[j].Src
		}
		if vs[i].V != vs[j].V {
			return vs[i].V < vs[j].V
		}
		return vs[i].D < vs[j].D
	})
}

// TestPrunedBatchBruteForce: PrunedBatch reproduces, per source, the serial
// slack-pruned flood — the same visited sets, levels, and canonical min-ID
// parents — for every slack the pipeline uses.
func TestPrunedBatchBruteForce(t *testing.T) {
	for name, g := range prunedNets(t) {
		sources := testSources(g.N(), 17, 0)
		bound := bruteDmin(g, sources)
		for _, slack := range []int32{0, 1, 2} {
			var want []graph.PrunedVisit
			for _, s := range sources {
				want = append(want, brutePruned(g, s, bound, slack)...)
			}
			var got []graph.PrunedVisit
			w := graph.NewWalker(g)
			for lo := 0; lo < len(sources); lo += 64 {
				hi := lo + 64
				if hi > len(sources) {
					hi = len(sources)
				}
				got = w.PrunedBatch(sources[lo:hi], bound, slack, got)
			}
			sortVisits(want)
			sortVisits(got)
			if len(want) != len(got) {
				t.Fatalf("%s slack=%d: visit counts differ: want %d got %d", name, slack, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s slack=%d: visit %d differs: want %+v got %+v", name, slack, i, want[i], got[i])
				}
			}
		}
	}
}

// bruteBounded floods from src up to radius and returns dist per node
// (Unreachable outside the ball).
func bruteBounded(g *graph.Graph, src int32, radius int32) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	dist[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] >= radius {
			continue
		}
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] >= 0 {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return dist
}

// checkBoundedReach runs one BoundedReach and checks that bit (j, i) of the
// reach matrix is set exactly when probe j is within the radius of source
// i, seeds included.
func checkBoundedReach(t *testing.T, name string, g *graph.Graph, sources []int32, radius int32, probes []int32) {
	t.Helper()
	reach := make([]uint64, len(probes))
	w := graph.NewWalker(g)
	w.BoundedReach(sources, radius, probes, reach)
	for i, s := range sources {
		dist := bruteBounded(g, s, radius)
		for j, p := range probes {
			got := reach[j]&(uint64(1)<<uint(i)) != 0
			want := dist[p] >= 0
			if got != want {
				t.Fatalf("%s radius=%d: reach[probe %d][src %d] = %v, want %v (dist %d)",
					name, radius, p, s, got, want, dist[p])
			}
		}
	}
}

// TestBoundedReachBruteForce: the reach matrix bit (j, i) is set exactly
// when probe j is within the radius of source i, seeds included.
func TestBoundedReachBruteForce(t *testing.T) {
	for name, g := range prunedNets(t) {
		n := g.N()
		sources := testSources(n, 29, 64)
		probes := append([]int32(nil), sources...)
		for v := 3; v < n && len(probes) < 70; v += 31 {
			probes = append(probes, int32(v))
		}
		for _, radius := range []int32{1, 3} {
			checkBoundedReach(t, name, g, sources, radius, probes)
		}
	}
}

// FuzzBoundedBatch checks BoundedReach against the serial bounded flood on
// small generated graphs: n = 1 + size%200 nodes, an edge per byte pair of
// data (self-loops and repeats dropped), with hub set a star from node 0 to
// every node, radius 1–5, and 1–64 sources drawn with replacement, the last
// repeating the first. Every node is a probe, and so is the first source
// again. The unused byte keeps the checked-in corpus parsing.
func FuzzBoundedBatch(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, uint8(9), false, uint8(2), uint8(5), uint8(20), int64(1))
	f.Add([]byte("bounded floods around a skeleton"), uint8(120), true, uint8(4), uint8(63), uint8(10), int64(2))
	f.Add([]byte{}, uint8(0), false, uint8(0), uint8(0), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, size uint8, hub bool, radius, nsrc, _ uint8, seed int64) {
		n := 1 + int(size)%200
		type edge [2]int32
		seen := make(map[edge]bool)
		b := graph.New(n)
		add := func(u, v int) {
			if u > v {
				u, v = v, u
			}
			if e := (edge{int32(u), int32(v)}); u != v && !seen[e] {
				seen[e] = true
				b.AddEdge(u, v)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			add(int(data[i])%n, int(data[i+1])%n)
		}
		if hub {
			for v := 1; v < n; v++ {
				add(0, v)
			}
		}
		g := b.Freeze()
		rng := rand.New(rand.NewSource(seed))
		sources := make([]int32, 1+int(nsrc)%64)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		sources[len(sources)-1] = sources[0]
		probes := make([]int32, 0, n+1)
		for v := 0; v < n; v++ {
			probes = append(probes, int32(v))
		}
		probes = append(probes, sources[0])
		r := 1 + int32(radius)%5
		name := fmt.Sprintf("n=%d edges=%d", n, g.NumEdges())
		checkBoundedReach(t, name, g, sources, r, probes)
	})
}

// TestVisitLogReplay: the settle log recorded during ball sizing replays
// weighted sums identical to a fresh BallWeightedSumsInto sweep, for any
// weight vector, and reports its recorded state truthfully.
func TestVisitLogReplay(t *testing.T) {
	g := nettest.Grid("onehole", 400, 6.5, 1).Graph
	n := g.N()
	maxR := 4
	for _, logRadius := range []int{2, 4} {
		var lg graph.VisitLog
		balls := ballRows(n, maxR)
		g.BallSizesIntoKernelLogged(graph.KernelBatched, maxR, logRadius, balls, &lg, nil, nil)
		if !lg.Recorded() {
			t.Fatalf("logRadius=%d: log not recorded on batched run", logRadius)
		}
		if lg.Radius() != logRadius {
			t.Fatalf("logRadius=%d: Radius() = %d", logRadius, lg.Radius())
		}
		// The logged pass must still produce correct ball sizes.
		ref := ballRows(n, maxR)
		g.BallSizesIntoKernel(graph.KernelBatched, maxR, ref, nil, nil)
		for v := 0; v < n; v++ {
			for r := 0; r < maxR; r++ {
				if balls[v][r] != ref[v][r] {
					t.Fatalf("logRadius=%d: ball[%d][%d] = %d, want %d", logRadius, v, r, balls[v][r], ref[v][r])
				}
			}
		}
		for trial, mod := range []int{7, 13} {
			weight := make([]int, n)
			for v := range weight {
				weight[v] = g.Degree(v)*trial + v%mod
			}
			want := make([]int, n)
			g.BallWeightedSumsInto(graph.KernelBatched, logRadius, weight, want, nil, nil)
			got := make([]int, n)
			lg.WeightedSumsInto(g, weight, got)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("logRadius=%d trial=%d: replayed sum[%d] = %d, want %d",
						logRadius, trial, v, got[v], want[v])
				}
			}
		}
	}
	// A walker-resolved run must invalidate any prior log.
	var lg graph.VisitLog
	balls := ballRows(n, maxR)
	g.BallSizesIntoKernelLogged(graph.KernelBatched, maxR, 2, balls, &lg, nil, nil)
	g.BallSizesIntoKernelLogged(graph.KernelWalker, maxR, 2, balls, &lg, nil, nil)
	if lg.Recorded() {
		t.Fatal("log still recorded after walker-resolved sweep")
	}
}

// TestParallelChunksWeighted: every index is covered exactly once by
// contiguous ascending chunks, whatever the weights (including degenerate
// ones), and boundaries are reproducible across calls.
func TestParallelChunksWeighted(t *testing.T) {
	cases := []struct {
		name   string
		count  int
		weight func(i int) int
	}{
		{"uniform", 100, func(i int) int { return 1 }},
		{"skewed", 100, func(i int) int { return i * i }},
		{"front-heavy", 257, func(i int) int { return 1000 - 3*i }},
		{"zeroes", 64, func(i int) int { return 0 }},
		{"negative", 64, func(i int) int { return -5 }},
		{"single", 1, func(i int) int { return 9 }},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			type span struct{ ci, lo, hi int }
			collect := func() []span {
				ch := make(chan span, tc.count+workers)
				graph.ParallelChunksWeighted(tc.count, workers, tc.weight, func(ci, lo, hi int) {
					ch <- span{ci, lo, hi}
				})
				close(ch)
				var spans []span
				for s := range ch {
					spans = append(spans, s)
				}
				sort.Slice(spans, func(i, j int) bool { return spans[i].ci < spans[j].ci })
				return spans
			}
			spans := collect()
			covered := 0
			for i, s := range spans {
				if s.ci != i {
					t.Fatalf("%s/workers=%d: chunk indices not dense: %+v", tc.name, workers, spans)
				}
				if s.hi <= s.lo {
					t.Fatalf("%s/workers=%d: empty chunk %+v", tc.name, workers, s)
				}
				if i > 0 && s.lo != spans[i-1].hi {
					t.Fatalf("%s/workers=%d: chunks not contiguous: %+v", tc.name, workers, spans)
				}
				covered += s.hi - s.lo
			}
			if covered != tc.count || spans[0].lo != 0 || spans[len(spans)-1].hi != tc.count {
				t.Fatalf("%s/workers=%d: coverage wrong: %+v", tc.name, workers, spans)
			}
			again := collect()
			if len(again) != len(spans) {
				t.Fatalf("%s/workers=%d: chunking not reproducible", tc.name, workers)
			}
			for i := range again {
				if again[i] != spans[i] {
					t.Fatalf("%s/workers=%d: chunking not reproducible: %+v vs %+v", tc.name, workers, spans[i], again[i])
				}
			}
		}
	}
}

// TestParallelRangeDegreeWeighting: ParallelRange over a graph's node range
// remains a correct cover (the degree weighting only moves chunk
// boundaries).
func TestParallelRangeDegreeWeighting(t *testing.T) {
	g := nettest.Grid("window", 300, 6.5, 1).Graph
	n := g.N()
	hit := make([]int32, n)
	graph.ParallelRange(g, n, nil, nil, func(w *graph.Walker, v int) {
		hit[v]++
	})
	for v, h := range hit {
		if h != 1 {
			t.Fatalf("node %d visited %d times", v, h)
		}
	}
}
