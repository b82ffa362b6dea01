package core

import (
	"runtime"
	"sort"

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
func voronoi(g *graph.Graph, sites []int32, alpha int32) (cellOf, distToSite []int32, records [][]SiteDist) {
	return NewExtractor(g).voronoi(sites, alpha, nil)
}

// voronoi is the staged engine's Phase 2. The per-site pruned floods run 64
// sites per bit-parallel pass over Z-curve site batches (see
// voronoiPrunedBatched for the tie-break and parent rules), and the dmin
// pass goes level-synchronous when several workers are available. The BFS
// scratch comes from the engine's pools, while everything that escapes into
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
	// Freeze up front: the batched floods read the CSR arrays, and Freeze
	// must never run inside parallel workers.
	g.Freeze()

	// Pass 1: multi-source BFS for dmin; ties go to the lowest site ID.
	e.vorQueue = growInt32s(e.vorQueue, n)
	if runtime.GOMAXPROCS(0) > 1 {
		e.voronoiDminParallel(sites, cellOf, distToSite)
	} else {
		e.voronoiDminSerial(sites, cellOf, distToSite)
	}
	if st != nil {
		st.Floods += 1 + len(sites)
	}
	e.event("floods", obs.Int("count", 1+len(sites)), obs.Int("sites", len(sites)))

	// Pass 2: per-site pruned floods recording (site, dist, parent) wherever
	// dist <= dmin + alpha. The recorded parent is canonical: the lowest-ID
	// neighbor one hop closer within the site's pruned visited set.
	e.voronoiPrunedBatched(sites, alpha, distToSite, records)
	return cellOf, distToSite, records
}

// voronoiDminSerial is the FIFO multi-source dmin pass: sites are enqueued
// in increasing ID order, so the first discoverer of any node — and hence
// its cell — is its lowest-ID nearest site.
func (e *Extractor) voronoiDminSerial(sites []int32, cellOf, distToSite []int32) {
	g := e.g
	queue := e.vorQueue[:0]
	for _, s := range sites {
		distToSite[s] = 0
		cellOf[s] = s
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := distToSite[u]
		for _, v := range g.Neighbors(int(u)) {
			if distToSite[v] == graph.Unreachable {
				distToSite[v] = du + 1
				cellOf[v] = cellOf[u]
				queue = append(queue, v)
			}
		}
	}
}

// voronoiDminParallel is the level-synchronous dmin pass: each level's
// frontier expands in parallel chunks into per-chunk candidate buffers,
// a serial merge dedups them into the next frontier, and a second parallel
// sweep assigns each new node the minimum cellOf among its previous-level
// neighbors.
//
// Bit-identity with the serial FIFO pass: in that pass each level's queue
// segment is non-decreasing in cellOf (by induction — sites are enqueued
// ascending, and a node is appended by its first discoverer, which scans
// the segment in order), so the first discoverer of v IS its min-cellOf
// neighbor at the previous level. Computing that minimum directly gives the
// same assignment with no dependence on chunk boundaries or worker count.
func (e *Extractor) voronoiDminParallel(sites []int32, cellOf, distToSite []int32) {
	g := e.g
	n := g.N()
	e.vorQueue2 = growInt32s(e.vorQueue2, n)
	frontier := e.vorQueue[:0]
	next := e.vorQueue2[:0]
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
// bit-parallel pass. Sites are batched along the Z-curve order so each
// batch's cells tile one compact patch (maximal frontier overlap), batches
// run in parallel with degree-weighted chunking, and a serial merge lays the
// records into an exactly-sized arena.
//
// Batching is invisible in the output: the admission rule
// d <= dmin(v)+alpha depends only on (node, level), so each site's pruned
// visited set and distances are independent of its batch; the per-bit
// parent is the lowest-ID predecessor; and the merge sorts each node's
// records by site ID.
func (e *Extractor) voronoiPrunedBatched(sites []int32, alpha int32, distToSite []int32, records [][]SiteDist) {
	g := e.g
	n := g.N()

	// Z-sort the sites. Rank by Build's Z-curve permutation when present
	// (ID order otherwise — then the sort is a no-op since sites arrive
	// sorted by ID).
	srt := growInt32s(e.vorSites, len(sites))
	copy(srt, sites)
	e.vorSites = srt
	if zorder := g.BatchOrder(); zorder != nil {
		rank := growInt32s(e.vorRank, n)
		e.vorRank = rank
		for i, v := range zorder {
			rank[v] = int32(i)
		}
		sort.Slice(srt, func(i, j int) bool {
			if rank[srt[i]] != rank[srt[j]] {
				return rank[srt[i]] < rank[srt[j]]
			}
			return srt[i] < srt[j]
		})
	}

	const batchSize = 64
	batches := (len(srt) + batchSize - 1) / batchSize
	if cap(e.vorVisits) < batches {
		e.vorVisits = append(e.vorVisits[:cap(e.vorVisits)], make([][]graph.PrunedVisit, batches-cap(e.vorVisits))...)
	}
	visits := e.vorVisits[:batches]
	offsets, _ := g.Offsets()
	batchWeight := func(b int) int {
		lo, hi := b*batchSize, (b+1)*batchSize
		if hi > len(srt) {
			hi = len(srt)
		}
		wsum := 0
		for _, s := range srt[lo:hi] {
			wsum += int(offsets[s+1] - offsets[s])
		}
		return wsum + 1
	}
	graph.ParallelRangeWeighted(g, batches, batchWeight, e.getWalker, e.putWalker, func(w *graph.Walker, b int) {
		lo, hi := b*batchSize, (b+1)*batchSize
		if hi > len(srt) {
			hi = len(srt)
		}
		visits[b] = w.PrunedBatch(srt[lo:hi], distToSite, alpha, visits[b][:0])
	})

	// Merge: count records per node (every site seeds its own record), lay
	// out an exactly-sized arena, append, then order each node's records by
	// site ID.
	cnt := growInt32s(e.vorCnt, n)
	e.vorCnt = cnt
	for i := range cnt {
		cnt[i] = 0
	}
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
	for _, s := range sites {
		records[s] = append(records[s], SiteDist{Site: s, D: 0, Parent: s})
	}
	for _, vis := range visits {
		for _, pv := range vis {
			records[pv.V] = append(records[pv.V], SiteDist{Site: pv.Src, D: pv.D, Parent: pv.Parent})
		}
	}
	for v := 0; v < n; v++ {
		recs := records[v]
		if len(recs) < 2 {
			continue
		}
		// Insertion sort by site: records per node are few (almost always
		// one or two) and site IDs are distinct within a node.
		for i := 1; i < len(recs); i++ {
			for j := i; j > 0 && recs[j].Site < recs[j-1].Site; j-- {
				recs[j], recs[j-1] = recs[j-1], recs[j]
			}
		}
	}
}

// specialNodes extracts the sorted segment-node and Voronoi-node lists from
// the per-node records.
func specialNodes(records [][]SiteDist) (segment, voronoiNodes []int32) {
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
