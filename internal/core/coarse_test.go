package core

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
)

// TestSortPairSegsRuns sorts shuffled unique tuples at one to four workers
// — run counts that merge evenly, carry an odd run over, or sort in one
// run — and requires the sorted order every time.
func TestSortPairSegsRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	plan := &churnPlan{state: 7}
	var tmp []pairSeg
	for _, n := range []int{0, 1, 100, sortRunMin, 3*sortRunMin + 17, 5 * sortRunMin} {
		want := make([]pairSeg, 0, n)
		for i := 0; i < n; i++ {
			a := int32(i / 50)
			want = append(want, pairSeg{pair: SitePair{A: a, B: a + 1 + int32(i%5)}, v: int32(i)})
		}
		slices.SortFunc(want, comparePairSeg)
		for procs := 1; procs <= 4; procs++ {
			runtime.GOMAXPROCS(procs)
			got := slices.Clone(want)
			for i := len(got) - 1; i > 0; i-- {
				j := plan.next(i + 1)
				got[i], got[j] = got[j], got[i]
			}
			sortPairSegs(got, &tmp)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d procs=%d: tuples out of order", n, procs)
			}
		}
	}
}

// bandEndsOracle is the band sweep as the coarse stage ran it before the
// pair walk went parallel: the band in a membership array, distances in an
// n-sized array, visits under a separate stamp. It also returns the second sweep's band distances.
func bandEndsOracle(g *graph.Graph, segs []int32, connector int32) (int32, int32, map[int32]int32) {
	if len(segs) == 1 {
		return segs[0], segs[0], map[int32]int32{segs[0]: 0}
	}
	inBand := make([]bool, g.N())
	for _, v := range segs {
		inBand[v] = true
	}
	dist, stamp := make([]int32, g.N()), make([]int32, g.N())
	var epoch int32
	farthest := func(src int32) int32 {
		epoch++
		stamp[src] = epoch
		dist[src] = 0
		queue := []int32{src}
		far := src
		visit := func(v, d int32) {
			if stamp[v] == epoch {
				return
			}
			stamp[v] = epoch
			dist[v] = d
			if d > dist[far] || (d == dist[far] && v < far) {
				far = v
			}
			queue = append(queue, v)
		}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u]
			for _, v := range g.Neighbors(int(u)) {
				if inBand[v] {
					visit(v, du+1)
					continue
				}
				for _, w := range g.Neighbors(int(v)) {
					if inBand[w] {
						visit(w, du+2)
					}
				}
			}
		}
		return far
	}
	e1 := farthest(connector)
	e2 := farthest(e1)
	second := make(map[int32]int32)
	for _, v := range segs {
		if stamp[v] == epoch {
			second[v] = dist[v]
		}
	}
	return e1, e2, second
}

// TestWalkerBandEndsMatchesOracle compares Walker.BandEnds, and the
// distances Walker.BandWalk reports from the first end, with the flood
// scratch sweep on random bands of a jittered grid: thinned balls, so the
// sweep must bridge single missing nodes (one-hop bridges at distance +2)
// and meets distance ties everywhere, plus bands with members out of
// bridge reach. One walker serves every band, interleaved with k-hop
// sweeps on the same stamp array.
func TestWalkerBandEndsMatchesOracle(t *testing.T) {
	g := nettest.Grid("window", 1500, 7, 2).Graph
	n := g.N()
	w := graph.NewWalker(g)
	plan := &churnPlan{state: 11}
	for trial := 0; trial < 400; trial++ {
		center := int32(plan.next(n))
		keep := 2 + plan.next(4) // drop about one in keep of the ball's nodes
		band := []int32{center}
		w.Walk(int(center), 2+plan.next(4), func(v, _ int32) {
			if plan.next(keep) != 0 {
				band = append(band, v)
			}
		})
		if trial%5 == 0 {
			band = append(band, int32(plan.next(n))) // likely out of reach
		}
		slices.Sort(band)
		band = slices.Compact(band)
		start := band[plan.next(len(band))]
		want1, want2, wantDist := bandEndsOracle(g, band, start)
		got1, got2 := w.BandEnds(band, start)
		if got1 != want1 || got2 != want2 {
			t.Fatalf("trial %d (band of %d from %d): BandEnds = (%d, %d), oracle (%d, %d)",
				trial, len(band), start, got1, got2, want1, want2)
		}
		gotDist := make(map[int32]int32)
		far := w.BandWalk(band, got1, func(v, d int32) { gotDist[v] = d })
		if far != want2 || !maps.Equal(gotDist, wantDist) {
			t.Fatalf("trial %d (band of %d from %d): BandWalk from %d reaches %d nodes, farthest %d; oracle %d nodes, farthest %d",
				trial, len(band), start, got1, len(gotDist), far, len(wantDist), want2)
		}
	}
}
