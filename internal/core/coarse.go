package core

import (
	"cmp"
	"runtime"
	"slices"

	"bfskel/internal/graph"
)

// pairSeg is one (site pair, segment node) membership tuple; the coarse
// stage collects them flat and sorts once instead of building a per-pair
// map, so the grouping allocates nothing once the engine's buffer is warm.
type pairSeg struct {
	pair SitePair
	v    int32
}

// coarse runs Phase 3 (Sec. III-C): for every pair of adjacent Voronoi
// cells, the segment node with the largest index is selected as the
// connector; it sends a message along the reverse paths kept during Voronoi
// construction, building the two paths to its nearest sites, which together
// connect the sites. The union of all such paths is the coarse skeleton.
//
// upd, nil on full runs, is an incremental update: it patches the previous
// run's sorted tuples instead of rebuilding them, and its coarse splice
// hands back the previous edge of every untouched pair.
func (e *Extractor) coarse(index []float64, records [][]SiteDist, upd *update) ([]SiteEdge, *Skeleton) {
	var splice *coarseSplice
	if upd != nil {
		splice = &upd.splice
	}
	if upd == nil || !upd.patchTuples(records) {
		// Collect (pair, segment node) tuples. A Voronoi node recording
		// m >= 3 sites is a segment node for each of its m(m-1)/2 pairs.
		tuples := e.pairBuf[:0]
		for v := range records {
			tuples = appendPairTuples(tuples, records[v], int32(v))
		}
		sortPairSegs(tuples, &e.pairTmp)
		e.pairBuf = tuples
	}
	return e.connectPairs(e.pairBuf, index, records, splice)
}

// connectPairs groups the (A, B, v)-sorted tuples by pair and connects
// each pair through its connector. The paper has each pair's segment nodes
// pick its connector locally, so pairs are independent units of work: the
// groups are cut into contiguous chunks weighted by segment count, one per
// worker, and each pair writes its SiteEdge into its own slot. Pairs
// therefore come out in sorted (A, B) order whatever the worker count —
// the edge list, the path union and the trace all follow this order, and
// the fixed-seed determinism tests compare them bit-for-bit — and each
// pair's segment nodes come out ascending by node ID. splice, nil on full
// runs, is an incremental update's reuse test: a previous edge it hands
// back is kept verbatim instead of being recomputed.
func (e *Extractor) connectPairs(tuples []pairSeg, index []float64, records [][]SiteDist,
	splice *coarseSplice) ([]SiteEdge, *Skeleton) {

	starts := e.pairStarts[:0]
	for i := range tuples {
		if i == 0 || tuples[i].pair != tuples[i-1].pair {
			starts = append(starts, int32(i))
		}
	}
	starts = append(starts, int32(len(tuples)))
	e.pairStarts = starts
	pairs := len(starts) - 1
	var edges []SiteEdge // stays nil when no two cells meet
	if pairs > 0 {
		edges = make([]SiteEdge, pairs)
	}
	workers := runtime.GOMAXPROCS(0)
	reused := make([]int, workers)
	graph.ParallelChunksWeighted(pairs, workers, func(i int) int { return int(starts[i+1] - starts[i]) },
		func(ci, lo, hi int) {
			w := e.getWalker()
			defer e.putWalker(w)
			segs := make([]int32, 0, 64)
			var pi int
			if splice != nil {
				pi = splice.cursor(tuples[starts[lo]].pair)
			}
			for i := lo; i < hi; i++ {
				group := tuples[starts[i]:starts[i+1]]
				pr := group[0].pair
				segs = segs[:0]
				for _, t := range group {
					segs = append(segs, t.v)
				}
				if splice != nil {
					if pe := splice.reuse(&pi, pr, segs); pe != nil {
						edges[i] = *pe
						reused[ci]++
						continue
					}
				}
				edges[i] = connectPair(w, pr, segs, index, records)
			}
		})
	if splice != nil {
		for _, r := range reused {
			splice.reused += r
		}
	}
	skel := skeletonOf(e.g.N(), len(edges), func(i int) []int32 { return edges[i].Path })
	return edges, skel
}

// connectPair builds one pair's SiteEdge from its ascending segment nodes.
// The paper selects exactly one segment node per adjacent cell pair, so
// each pair contributes one connection. (A hole encircled by only two
// cells is therefore not representable — as in the paper; enough sites
// form around any hole of non-trivial size.) The band's end nodes (the
// paper's "end nodes", Sec. III-D) come from the walker's double sweep
// over the band.
func connectPair(w *graph.Walker, pr SitePair, segs []int32, index []float64, records [][]SiteDist) SiteEdge {
	connector := selectConnector(segs, index)
	toA := pathToSite(records, connector, pr.A)
	toB := pathToSite(records, connector, pr.B)
	// Full path A .. connector .. B.
	path := make([]int32, 0, len(toA)+len(toB)-1)
	for i := len(toA) - 1; i >= 0; i-- {
		path = append(path, toA[i])
	}
	path = append(path, toB[1:]...)
	e1, e2 := w.BandEnds(segs, connector)
	return SiteEdge{
		Pair:         pr,
		Connector:    connector,
		Path:         path,
		EndNodes:     [2]int32{e1, e2},
		SegmentCount: len(segs),
	}
}

// appendPairTuples appends one (pair, v) tuple per site pair recorded at v.
func appendPairTuples(dst []pairSeg, recs []SiteDist, v int32) []pairSeg {
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			dst = append(dst, pairSeg{pair: MakeSitePair(recs[i].Site, recs[j].Site), v: v})
		}
	}
	return dst
}

// comparePairSeg orders tuples by (pair.A, pair.B, v), the coarse grouping
// order.
func comparePairSeg(a, b pairSeg) int {
	if c := cmp.Compare(a.pair.A, b.pair.A); c != 0 {
		return c
	}
	if c := cmp.Compare(a.pair.B, b.pair.B); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// sortRunMin is the smallest run the tuple sort hands a worker; shorter
// arrays sort in one run on the calling goroutine.
const sortRunMin = 1 << 12

// sortPairSegs sorts the tuples into (A, B, v) order: contiguous runs of
// at least sortRunMin tuples sort concurrently, one per worker, then merge
// pairwise, ping-ponging through tmp (grown as needed and kept by the
// caller). Tuple keys are unique, so the result is the one sorted array
// whatever the run count.
func sortPairSegs(t []pairSeg, tmp *[]pairSeg) {
	workers := min(runtime.GOMAXPROCS(0), len(t)/sortRunMin)
	if workers <= 1 {
		slices.SortFunc(t, comparePairSeg)
		return
	}
	// runs[r]..runs[r+1] is run r; ParallelChunks may cut fewer chunks
	// than asked, leaving trailing zeros.
	runs := make([]int, workers+1)
	graph.ParallelChunks(len(t), workers, func(ci, lo, hi int) {
		slices.SortFunc(t[lo:hi], comparePairSeg)
		runs[ci+1] = hi
	})
	for runs[len(runs)-1] == 0 {
		runs = runs[:len(runs)-1]
	}
	*tmp = grow(*tmp, len(t))
	src, dst := t, *tmp
	for len(runs) > 2 {
		nr := len(runs) - 1
		graph.ParallelChunks((nr+1)/2, (nr+1)/2, func(_, lo, hi int) {
			for p := lo; p < hi; p++ {
				a := runs[2*p]
				if 2*p+1 == nr { // odd run out: carried over
					copy(dst[a:runs[nr]], src[a:runs[nr]])
					continue
				}
				b, c := runs[2*p+1], runs[2*p+2]
				mergePairSegs(dst[a:c], src[a:b], src[b:c])
			}
		})
		merged := runs[:1]
		for r := 2; r <= nr; r += 2 {
			merged = append(merged, runs[r])
		}
		if nr%2 == 1 {
			merged = append(merged, runs[nr])
		}
		runs = merged
		src, dst = dst, src
	}
	if &src[0] != &t[0] {
		copy(t, src)
	}
}

// mergePairSegs merges the sorted runs a and b into dst (len(a)+len(b)).
func mergePairSegs(dst, a, b []pairSeg) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if comparePairSeg(b[j], a[i]) < 0 {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// selectConnector picks the segment node with the largest index, breaking
// ties toward the lowest node ID for determinism.
func selectConnector(segs []int32, index []float64) int32 {
	best := segs[0]
	for _, v := range segs[1:] {
		if index[v] > index[best] || (index[v] == index[best] && v < best) {
			best = v
		}
	}
	return best
}
