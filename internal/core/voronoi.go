package core

import (
	"runtime"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// voronoi runs Phase 2 (Sec. III-B): the sites flood simultaneously; each
// node keeps its nearest site, its hop distance and the reverse path, and
// nodes almost equidistant (slack Alpha) to several sites record all of
// them, becoming segment nodes (two records) or Voronoi nodes (three or
// more).
//
// Centralized realisation: a first multi-source BFS assigns the minimum
// distance dmin; then one pruned BFS per site visits exactly the nodes v
// with dist_s(v) <= dmin(v)+Alpha. The pruning is exact because along any
// shortest path toward s the slack dist_s - dmin never increases (triangle
// inequality in the hop metric), so the visited sets match the paper's
// forwarding rule while keeping total work near-linear.
//
// The per-site pruned floods run 64 sites per bit-parallel pass over
// Z-curve site batches (see voronoiPrunedBatched for the tie-break and
// parent rules), and the dmin pass is level-synchronous over the available
// workers. The BFS scratch comes from the engine's pools — the n-sized
// buffers are borrowed from the coarse/refine flood scratch, whose
// lifetime never overlaps this stage — while everything that escapes into
// the Result is allocated fresh. st, when non-nil, accumulates the flood
// counters.
func (e *Extractor) voronoi(sites []int32, alpha int32, st *Stats) (cellOf, distToSite []int32, records [][]SiteDist) {
	g := e.g
	n := g.N()
	cellOf = make([]int32, n)
	distToSite = make([]int32, n)
	records = make([][]SiteDist, n)
	for i := range cellOf {
		cellOf[i] = -1
		distToSite[i] = graph.Unreachable
	}
	if len(sites) == 0 {
		return cellOf, distToSite, records
	}
	// Pass 1: multi-source BFS for dmin; ties go to the lowest site ID.
	e.fld.ensure(n)
	e.voronoiDmin(sites, cellOf, distToSite)
	if st != nil {
		st.Floods += 1 + len(sites)
	}
	e.event("floods", obs.Int("count", 1+len(sites)), obs.Int("sites", len(sites)))

	// Pass 2: per-site pruned floods recording (site, dist, parent) wherever
	// dist <= dmin + alpha. The recorded parent is canonical: the lowest-ID
	// neighbor one hop closer within the site's pruned visited set.
	e.voronoiPrunedBatched(sites, alpha, cellOf, distToSite, records)
	return cellOf, distToSite, records
}

// VoronoiRecords runs the Voronoi stage's almost-equidistant flood from the
// given sources on a fresh engine: dist is every node's hop distance to its
// nearest source (Unreachable in source-free components), and records[v]
// holds one entry per source within slack hops of that distance, ordered by
// source ID, with the lowest-ID reverse-path parent. The MAP and CASE
// baselines use it as their boundary distance transform. sources must be
// sorted and distinct, as boundary.Result.Nodes is.
func VoronoiRecords(g *graph.Graph, sources []int32, slack int32) (dist []int32, records [][]SiteDist) {
	_, dist, records = NewExtractor(g).voronoi(sources, slack, nil)
	return dist, records
}

// voronoiDmin is the level-synchronous multi-source dmin pass: each
// level's frontier expands in parallel chunks into per-chunk candidate
// buffers, a serial merge dedups them into the next frontier, and a second
// parallel sweep assigns each new node the minimum cellOf among its
// previous-level neighbors. With one worker both sweeps run inline.
//
// It gives the FIFO multi-source BFS assignment, in which sites are
// enqueued in increasing ID order and a node's cell is its first
// discoverer's, i.e. its lowest-ID nearest site: each level's FIFO queue
// segment is non-decreasing in cellOf (by induction — sites are enqueued
// ascending, and a node is appended by its first discoverer, which scans
// the segment in order), so the first discoverer of v IS its min-cellOf
// neighbor at the previous level. Computing that minimum directly gives the
// same assignment with no dependence on chunk boundaries or worker count.
// The FIFO pass is the test oracle (TestVoronoiDminMatchesFIFO).
//
// The two frontier lists borrow the flood scratch's queue and next lists
// (n-capacity after ensure), which nothing else reads.
func (e *Extractor) voronoiDmin(sites []int32, cellOf, distToSite []int32) {
	g := e.g
	frontier := e.fld.queue[:0]
	next := e.fld.next[:0]
	for _, s := range sites {
		distToSite[s] = 0
		cellOf[s] = s
		frontier = append(frontier, s)
	}
	workers := runtime.GOMAXPROCS(0)
	if cap(e.vorCand) < workers {
		e.vorCand = make([][]int32, workers)
	}
	cand := e.vorCand[:workers]
	for d := int32(1); len(frontier) > 0; d++ {
		// Expand: collect unvisited-neighbor candidates per chunk. Reads of
		// distToSite are stable (writes happen only in the serial merge),
		// and each chunk writes only its own buffer.
		for ci := range cand {
			cand[ci] = cand[ci][:0]
		}
		graph.ParallelChunks(len(frontier), workers, func(ci, lo, hi int) {
			buf := cand[ci]
			for _, u := range frontier[lo:hi] {
				for _, v := range g.Neighbors(int(u)) {
					if distToSite[v] == graph.Unreachable {
						buf = append(buf, v)
					}
				}
			}
			cand[ci] = buf
		})
		// Merge in chunk order: the concatenation of per-chunk candidates
		// equals the serial scan order of the frontier, so the next frontier
		// comes out in serial BFS order for any worker count.
		next = next[:0]
		for _, buf := range cand {
			for _, v := range buf {
				if distToSite[v] == graph.Unreachable {
					distToSite[v] = d
					next = append(next, v)
				}
			}
		}
		// Assign cells: min cellOf over the previous-level neighbors.
		graph.ParallelChunks(len(next), workers, func(_, lo, hi int) {
			for _, v := range next[lo:hi] {
				best := int32(-1)
				for _, u := range g.Neighbors(int(v)) {
					if distToSite[u] == d-1 {
						if c := cellOf[u]; best == -1 || c < best {
							best = c
						}
					}
				}
				cellOf[v] = best
			}
		})
		frontier, next = next, frontier
	}
}

// voronoiPrunedBatched runs the per-site pruned floods 64 sites per
// bit-parallel pass (prunedFloods) over Z-curve site batches, and a serial
// merge lays the records into an exactly-sized arena.
//
// Batching is invisible in the output: the admission rule
// d <= dmin(v)+alpha depends only on (node, level), so each site's pruned
// visited set and distances are independent of its batch; the per-bit
// parent is the lowest-ID predecessor; and the merge sorts each node's
// records by site ID.
func (e *Extractor) voronoiPrunedBatched(sites []int32, alpha int32, cellOf, distToSite []int32, records [][]SiteDist) {
	g := e.g
	n := g.N()

	// Z-sort the sites, so each batch's cells tile one compact patch
	// (maximal frontier overlap): one walk of Build's Z-curve permutation
	// picks them out in curve order (a site is the one node of its own
	// cell). Without a permutation they stay in ID order.
	srt := e.vorSites[:0]
	if zorder := g.BatchOrder(); zorder != nil {
		for _, v := range zorder {
			if cellOf[v] == v {
				srt = append(srt, v)
			}
		}
	} else {
		srt = append(srt, sites...)
	}
	e.vorSites = srt

	// Borrowed like voronoiDmin's lists, all-zero on entry: per-cell, then
	// per-node counts, zeroed again once the arena is laid out.
	cnt := e.fld.vals
	for _, c := range cellOf {
		if c >= 0 {
			cnt[c]++
		}
	}
	visits := e.prunedFloods(srt, distToSite, alpha, cnt)

	// Merge: count records per node (every site seeds its own record), lay
	// out an exactly-sized arena, append, then order each node's records by
	// site ID.
	clear(cnt)
	total := len(sites)
	for _, s := range sites {
		cnt[s]++
	}
	for _, vis := range visits {
		total += len(vis)
		for _, pv := range vis {
			cnt[pv.V]++
		}
	}
	arena := make([]SiteDist, 0, total)
	off := 0
	for v := 0; v < n; v++ {
		if c := int(cnt[v]); c > 0 {
			records[v] = arena[off : off : off+c]
			off += c
		}
	}
	clear(cnt)
	for _, s := range sites {
		records[s] = append(records[s], SiteDist{Site: s, D: 0, Parent: s})
	}
	for _, vis := range visits {
		for _, pv := range vis {
			records[pv.V] = append(records[pv.V], SiteDist{Site: pv.Src, D: pv.D, Parent: pv.Parent})
		}
	}
	for _, recs := range records {
		if len(recs) > 1 {
			sortBySite(recs)
		}
	}
}

// prunedFloods floods the pruned zones of the Z-ordered sites srt under the
// admission rule d <= dmin(v)+alpha, 64 sites per bit-parallel pass: the
// batches run in parallel with degree-weighted chunking, and each batch's
// settles land in one of the engine's reused buffers, returned in batch
// order. It is the Voronoi stage's one record-building kernel, for full
// extractions and incremental repairs alike. cells, when non-nil, holds
// each site's cell size and sizes a batch buffer on its first use: a
// batch visits at least its cells' nodes (every node is reached by its own
// site) and the alpha band adds about half as many again, so the first
// extraction does not grow each buffer by doubling.
func (e *Extractor) prunedFloods(srt, dmin []int32, alpha int32, cells []int32) [][]graph.PrunedVisit {
	g := e.g
	const batchSize = 64
	batches := (len(srt) + batchSize - 1) / batchSize
	if cap(e.vorVisits) < batches {
		e.vorVisits = append(e.vorVisits[:cap(e.vorVisits)], make([][]graph.PrunedVisit, batches-cap(e.vorVisits))...)
	}
	visits := e.vorVisits[:batches]
	offsets := g.Offsets()
	batchWeight := func(b int) int {
		lo, hi := b*batchSize, min((b+1)*batchSize, len(srt))
		wsum := 0
		for _, s := range srt[lo:hi] {
			wsum += int(offsets[s+1] - offsets[s])
		}
		return wsum + 1
	}
	graph.ParallelRangeWeighted(g, batches, batchWeight, e.getWalker, e.putWalker, func(w *graph.Walker, b int) {
		lo, hi := b*batchSize, min((b+1)*batchSize, len(srt))
		if cap(visits[b]) == 0 && cells != nil {
			size := 0
			for _, s := range srt[lo:hi] {
				size += int(cells[s])
			}
			visits[b] = make([]graph.PrunedVisit, 0, size+size/2)
		}
		visits[b] = w.PrunedBatch(srt[lo:hi], dmin, alpha, visits[b][:0])
	})
	return visits
}

// sortBySite orders one node's records by site ID. Insertion sort: records
// per node are few (almost always one or two) and site IDs are distinct
// within a node.
func sortBySite(recs []SiteDist) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Site < recs[j-1].Site; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// specialNodes extracts the sorted segment-node and Voronoi-node lists from
// the per-node records. A counting pass sizes each list, so both are
// allocated once (nil when empty).
func specialNodes(records [][]SiteDist) (segment, voronoiNodes []int32) {
	nseg, nvor := 0, 0
	for _, recs := range records {
		if len(recs) >= 2 {
			nseg++
		}
		if len(recs) >= 3 {
			nvor++
		}
	}
	if nseg > 0 {
		segment = make([]int32, 0, nseg)
	}
	if nvor > 0 {
		voronoiNodes = make([]int32, 0, nvor)
	}
	for v, recs := range records {
		switch {
		case len(recs) >= 3:
			voronoiNodes = append(voronoiNodes, int32(v))
			segment = append(segment, int32(v))
		case len(recs) == 2:
			segment = append(segment, int32(v))
		}
	}
	return segment, voronoiNodes
}

// recordFor returns the record of the given site at node v, if any.
func recordFor(records [][]SiteDist, v, site int32) (SiteDist, bool) {
	for _, r := range records[v] {
		if r.Site == site {
			return r, true
		}
	}
	return SiteDist{}, false
}

// pathToSite follows the recorded parents from v to the given site; it
// returns the node sequence v, ..., site. The reverse-path invariant holds
// because every recorded node's parent is also recorded for the same site.
func pathToSite(records [][]SiteDist, v, site int32) []int32 {
	var path []int32
	cur := v
	for {
		path = append(path, cur)
		if cur == site {
			return path
		}
		rec, ok := recordFor(records, cur, site)
		if !ok {
			// Should be unreachable by construction; return what we have so
			// a corrupted record manifests as a short path, not a hang.
			return path
		}
		if rec.Parent == cur {
			return path
		}
		cur = rec.Parent
	}
}
