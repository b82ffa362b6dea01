package core

import "sort"

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
		sortPairSegs(tuples)
		e.pairBuf = tuples
	}
	return e.connectPairs(e.pairBuf, index, records, splice)
}

// connectPairs walks the (A, B, v)-sorted tuples one pair group at a time
// and connects each pair through its connector. Pairs come out in sorted
// (A, B) order — the edge list, the path union and the trace all follow
// this order, and the fixed-seed determinism tests compare them
// bit-for-bit — and each pair's segment nodes come out ascending by node
// ID. splice, nil on full runs, is an incremental update's reuse test: a
// previous edge it hands back is kept verbatim instead of being recomputed.
func (e *Extractor) connectPairs(tuples []pairSeg, index []float64, records [][]SiteDist,
	splice *coarseSplice) ([]SiteEdge, *Skeleton) {

	e.fld.ensure(e.g.N())
	var edges []SiteEdge
	segs := make([]int32, 0, 64)
	for lo := 0; lo < len(tuples); {
		hi := lo
		pr := tuples[lo].pair
		for hi < len(tuples) && tuples[hi].pair == pr {
			hi++
		}
		segs = segs[:0]
		for _, t := range tuples[lo:hi] {
			segs = append(segs, t.v)
		}
		lo = hi
		if splice != nil {
			if pe := splice.reuse(pr, segs); pe != nil {
				edges = append(edges, *pe)
				continue
			}
		}
		// The paper selects exactly one segment node per adjacent cell
		// pair, so each pair contributes one connection. (A hole encircled
		// by only two cells is therefore not representable — as in the
		// paper; enough sites form around any hole of non-trivial size.)
		connector := selectConnector(segs, index)
		toA := pathToSite(records, connector, pr.A)
		toB := pathToSite(records, connector, pr.B)
		// Full path A .. connector .. B.
		path := make([]int32, 0, len(toA)+len(toB)-1)
		for i := len(toA) - 1; i >= 0; i-- {
			path = append(path, toA[i])
		}
		path = append(path, toB[1:]...)
		e1, e2 := e.bandEndNodes(segs, connector)
		edges = append(edges, SiteEdge{
			Pair:         pr,
			Connector:    connector,
			Path:         path,
			EndNodes:     [2]int32{e1, e2},
			SegmentCount: len(segs),
		})
	}
	skel := skeletonOf(e.g.N(), len(edges), func(i int) []int32 { return edges[i].Path })
	return edges, skel
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

// pairSegLess orders tuples by (pair.A, pair.B, v), the coarse grouping
// order.
func pairSegLess(a, b pairSeg) bool {
	if a.pair.A != b.pair.A {
		return a.pair.A < b.pair.A
	}
	if a.pair.B != b.pair.B {
		return a.pair.B < b.pair.B
	}
	return a.v < b.v
}

func sortPairSegs(t []pairSeg) {
	sort.Slice(t, func(i, j int) bool { return pairSegLess(t[i], t[j]) })
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

// bandEndNodes finds the two farthest-apart segment nodes of a pair's band
// (the paper's "end nodes", Sec. III-D) with a double BFS sweep restricted
// to the band.
func (e *Extractor) bandEndNodes(segs []int32, connector int32) (int32, int32) {
	if len(segs) == 1 {
		return segs[0], segs[0]
	}
	e.fld.beginMark()
	for _, v := range segs {
		e.fld.mark(v, 1)
	}
	e1 := e.farthestInBand(connector)
	e2 := e.farthestInBand(e1)
	return e1, e2
}

// farthestInBand runs a BFS from src that traverses band nodes (the current
// mark set, allowing the same one-hop bridges as bandComponents) and returns
// the farthest reached band node (src if none). The tie-break is explicit:
// among nodes at the maximum distance, the lowest node ID wins, so the
// selected end node is a pure function of the band — the mark set is only
// ever used for membership tests, never iterated.
func (e *Extractor) farthestInBand(src int32) int32 {
	g := e.g
	fld := &e.fld
	fld.epoch++
	epoch := fld.epoch
	dist, stamp := fld.dist, fld.stamp
	stamp[src] = epoch
	dist[src] = 0
	queue := fld.queue[:0]
	queue = append(queue, src)
	far := src
	visit := func(v, d int32) {
		if stamp[v] == epoch {
			return
		}
		stamp[v] = epoch
		dist[v] = d
		// Strictly farther wins; at equal distance the lower ID wins.
		if d > dist[far] || (d == dist[far] && v < far) {
			far = v
		}
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if _, inBand := fld.marked(v); inBand {
				visit(v, du+1)
				continue
			}
			for _, w := range g.Neighbors(int(v)) {
				if _, inBand := fld.marked(w); inBand {
					visit(w, du+2)
				}
			}
		}
	}
	fld.queue = queue[:0]
	return far
}
