package core

import (
	"math/bits"
	"sort"

	"bfskel/internal/graph"
)

// refine runs Phase 4 through a throwaway engine; the staged pipeline calls
// the Extractor method below so the scratch pools persist.
func refine(g *graph.Graph, p Params, index []float64, records [][]SiteDist,
	cellOf []int32, edges []SiteEdge, coarseSkel *Skeleton, st *Stats) ([]Loop, *Skeleton) {
	return NewExtractor(g).refine(p, index, records, cellOf, edges, coarseSkel, st)
}

// refine runs Phase 4 (Sec. III-D): identify skeleton loops, decide which
// are genuine (caused by holes) and which are fake (caused by three or more
// mutually adjacent Voronoi cells or by redundant parallel connections),
// delete the fake ones, and finally prune short leaf branches.
//
// Loop classification follows the paper's end-node flooding: every skeleton
// edge carries two end nodes (the extremes of its segment-node band). For a
// cycle in the site-level graph, walk its consecutive edges and measure the
// hop gap between their closest end nodes without crossing the coarse
// skeleton. Around a mere Voronoi meeting point the bands converge, so the
// "end node loop" stitched from these gaps is short — the loop is fake.
// Around a hole the end nodes lie on the hole boundary and the stitched
// loop has to travel the hole perimeter — the loop is genuine.
func (e *Extractor) refine(p Params, index []float64, records [][]SiteDist,
	cellOf []int32, edges []SiteEdge, coarseSkel *Skeleton, st *Stats) ([]Loop, *Skeleton) {

	w := e.newRefiner(p, index, records, cellOf)
	for _, se := range edges {
		w.edges = append(w.edges, wEdge{
			a: se.Pair.A, b: se.Pair.B, path: se.Path,
			connector: se.Connector, ends: se.EndNodes, segs: se.SegmentCount,
		})
	}
	w.dropRedundantParallels()
	w.classifyLoops()
	skel := w.build()
	before := skel.NumNodes()
	pruneBranches(skel, pruneThreshold(p, edges))
	if st != nil {
		st.PrunedNodes += before - skel.NumNodes()
	}
	return w.loops, skel
}

// wEdge is a working (site-level) skeleton edge; refinement deletes some
// of them.
type wEdge struct {
	a, b      int32 // site node IDs
	path      []int32
	connector int32
	ends      [2]int32
	segs      int
	deleted   bool
}

// refiner carries the mutable state of Phase 4. The bounded floods of the
// phase (floodFrom, hopDistWithin, the end-node clustering) run over the
// owning engine's stamped flood scratch, so the hundreds of small floods
// allocate nothing.
type refiner struct {
	e       *Extractor
	g       *graph.Graph
	p       Params
	index   []float64
	records [][]SiteDist
	cellOf  []int32
	edges   []wEdge
	loops   []Loop
	// fcache, when non-nil, caches the end-node cluster floods across
	// incremental updates (see endFloodCache); nil on full extractions.
	fcache *endFloodCache
	// debugf, when non-nil, receives a trace of every classification.
	debugf func(format string, args ...any)
}

// newRefiner sets up the phase state over a throwaway engine, preserving
// the historical constructor shape for the debug harness.
func newRefiner(g *graph.Graph, p Params, index []float64, records [][]SiteDist, cellOf []int32) *refiner {
	return NewExtractor(g).newRefiner(p, index, records, cellOf)
}

// newRefiner sets up the phase state, sizing the engine's flood scratch to
// the graph and freezing it for the batched floods (Freeze must never run
// inside parallel workers).
func (e *Extractor) newRefiner(p Params, index []float64, records [][]SiteDist, cellOf []int32) *refiner {
	e.fld.ensure(e.g.N())
	e.g.Freeze()
	return &refiner{
		e: e, g: e.g, p: p, index: index, records: records, cellOf: cellOf,
	}
}

// build assembles the node-level skeleton from the surviving edges. Paths
// of different edges share links (reverse paths to a common site coincide
// near the site), so the skeleton is always rebuilt rather than updated
// incrementally.
func (w *refiner) build() *Skeleton {
	skel := NewSkeleton(w.g.N())
	for _, e := range w.edges {
		if !e.deleted {
			skel.AddPath(e.path)
		}
	}
	return skel
}

// dropRedundantParallels removes duplicate connections between the same
// site pair whose connectors are close to each other — artifacts of a
// bisector band shattering into several components under sparse sampling.
func (w *refiner) dropRedundantParallels() {
	type pairIdx struct {
		pair SitePair
		i    int
	}
	tuples := make([]pairIdx, 0, len(w.edges))
	for i, e := range w.edges {
		tuples = append(tuples, pairIdx{pair: MakeSitePair(e.a, e.b), i: i})
	}
	// Sort by (A, B, i) and walk the groups. Each group only examines and
	// deletes its own pair's edges, so the sorted group order yields the
	// same outcomes as any other order — but deterministically.
	sort.Slice(tuples, func(a, b int) bool {
		if tuples[a].pair.A != tuples[b].pair.A {
			return tuples[a].pair.A < tuples[b].pair.A
		}
		if tuples[a].pair.B != tuples[b].pair.B {
			return tuples[a].pair.B < tuples[b].pair.B
		}
		return tuples[a].i < tuples[b].i
	})
	nearLimit := 2*w.p.Alpha + 3
	var idxs []int
	for lo := 0; lo < len(tuples); {
		hi := lo
		pr := tuples[lo].pair
		for hi < len(tuples) && tuples[hi].pair == pr {
			hi++
		}
		idxs = idxs[:0]
		for _, t := range tuples[lo:hi] {
			idxs = append(idxs, t.i)
		}
		lo = hi
		if len(idxs) < 2 {
			continue
		}
		// Keep the widest band first; drop others whose connector is near a
		// kept one.
		sort.Slice(idxs, func(a, b int) bool {
			if w.edges[idxs[a]].segs != w.edges[idxs[b]].segs {
				return w.edges[idxs[a]].segs > w.edges[idxs[b]].segs
			}
			return w.edges[idxs[a]].connector < w.edges[idxs[b]].connector
		})
		// For groups of up to 64 edges one bit-parallel flood yields the
		// exact pairwise within-nearLimit matrix; larger groups test pairs
		// one bounded BFS at a time. The keep/delete scan below reads the
		// same predicate either way.
		var reach []uint64
		if len(idxs) <= 64 {
			conns := make([]int32, len(idxs))
			for j, ei := range idxs {
				conns[j] = w.edges[ei].connector
			}
			reach = make([]uint64, len(idxs))
			wk := w.e.getWalker()
			wk.BoundedReach(conns, nearLimit, conns, reach)
			w.e.putWalker(wk)
		}
		kept := []int{0}
		for a := 1; a < len(idxs); a++ {
			redundant := false
			for _, kj := range kept {
				if reach != nil {
					redundant = reach[a]&(uint64(1)<<uint(kj)) != 0
				} else {
					redundant = w.hopDistWithin(w.edges[idxs[a]].connector, w.edges[idxs[kj]].connector, nearLimit)
				}
				if redundant {
					break
				}
			}
			if redundant {
				w.edges[idxs[a]].deleted = true
			} else {
				kept = append(kept, a)
			}
		}
	}
}

// classifyLoops realises the paper's end-node loop test in its junction
// form. Every edge's band carries two end nodes; where three or more
// Voronoi cells meet (no hole), the bands of the pairwise edges converge,
// so their end nodes cluster within a few hops of each other — the "end
// node loop is small" condition. The cycles among the edges meeting at such
// a junction cluster are exactly the fake loops: they are broken by
// deleting redundant edges, preferring to keep edges that do not run
// between two junctions and edges with more central connectors. Rings
// around holes never cluster on the hole side (their end nodes are
// separated by the hole-boundary arcs), so genuine loops survive.
func (w *refiner) classifyLoops() {
	// The clustering floods only read skeleton membership, never adjacency,
	// so a pooled mask over the active edges' paths stands in for the full
	// skeleton build; the set bits are tracked for O(set) clearing below.
	mask := growBools(w.e.cmask, w.g.N())
	w.e.cmask = mask
	maskOn := w.e.cmaskOn[:0]
	for _, e := range w.edges {
		if e.deleted {
			continue
		}
		for _, v := range e.path {
			if !mask[v] {
				mask[v] = true
				maskOn = append(maskOn, v)
			}
		}
	}
	radius := w.junctionRadius()
	if w.debugf != nil {
		w.debugf("junction radius=%d", radius)
	}

	// Gather the end nodes of all active edges; endsOf maps each edge to
	// its one or two entries.
	type endRef struct {
		edge int
		node int32
	}
	var ends []endRef
	endsOf := make([][2]int32, len(w.edges))
	for i, e := range w.edges {
		endsOf[i] = [2]int32{-1, -1}
		if e.deleted {
			continue
		}
		endsOf[i][0] = int32(len(ends))
		ends = append(ends, endRef{edge: i, node: e.ends[0]})
		if e.ends[1] != e.ends[0] {
			endsOf[i][1] = int32(len(ends))
			ends = append(ends, endRef{edge: i, node: e.ends[1]})
		} else {
			endsOf[i][1] = endsOf[i][0]
		}
	}

	// Cluster end nodes: each floods up to the junction radius without
	// crossing the skeleton; end nodes whose floods touch are merged. The
	// merge is claim-based: the first end to touch a graph node becomes its
	// representative (the engine's mark scratch), and every later toucher
	// unions with it — the same partition as uniting all pairwise overlaps,
	// since all touchers of a node connect through its representative.
	// Claim order varies between the batched floods and the incremental
	// path's cached replays, so nothing downstream may depend on union-find
	// root identities; clusters are keyed by their largest member index
	// instead (see below).
	uf := newUnionFind(len(ends))
	fld := &w.e.fld
	fld.beginMark()
	claim := func(i int, v int32) {
		if rep, ok := fld.marked(v); ok {
			uf.union(i, int(rep))
		} else {
			fld.mark(v, int32(i))
		}
	}
	for i, er := range ends {
		claim(i, er.node)
	}
	if w.fcache != nil {
		// Incremental path: replay cached flood sets where still valid and
		// flood only the evicted ends. The cluster partition is a pure
		// function of the per-end node sets, so replayed claims produce the
		// same clusters as the batched floods.
		c := w.fcache
		c.begin(w.g, mask, radius)
		misses := 0
		for i, er := range ends {
			fs, ok := c.entries[er.node]
			if !ok {
				fs = makeFloodSet(w.floodFrom(er.node, radius, mask))
				c.entries[er.node] = fs
				misses++
			}
			for _, v := range fs.nodes {
				claim(i, v)
			}
		}
		if w.debugf != nil {
			w.debugf("end flood cache: %d ends, %d misses", len(ends), misses)
		}
	} else {
		// 64 ends per bit-parallel flood; the skeleton mask blocks
		// expansion exactly like floodFrom's Contains check.
		wk := w.e.getWalker()
		srcs := make([]int32, 0, 64)
		for lo := 0; lo < len(ends); lo += 64 {
			hi := lo + 64
			if hi > len(ends) {
				hi = len(ends)
			}
			srcs = srcs[:0]
			for _, er := range ends[lo:hi] {
				srcs = append(srcs, er.node)
			}
			wk.BoundedBatch(srcs, radius, mask, func(v int32, bw uint64) {
				for b := bw; b != 0; b &= b - 1 {
					claim(lo+bits.TrailingZeros64(b), v)
				}
			})
		}
		w.e.putWalker(wk)
	}

	// Resolve clusters. The canonical cluster key is the largest member
	// index: it is a pure function of the partition (unlike the union-find
	// root, which depends on union order), and it equals the root the
	// historical serial unions produced, so cluster processing order — which
	// decides which shared edges get deleted first — is unchanged.
	root := make([]int, len(ends))
	size := make([]int, len(ends))
	maxMember := make([]int, len(ends))
	for i := range ends {
		root[i] = uf.find(i)
	}
	for i := range ends {
		r := root[i]
		size[r]++
		maxMember[r] = i // ascending i: the last write is the max
	}
	var order []int // roots of multi-member clusters, by max member
	for i := range ends {
		if root[i] == i && size[i] > 1 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return maxMember[order[a]] < maxMember[order[b]] })

	// Bucket members by root once (counting sort, ascending within each
	// cluster) so the per-cluster pass below reads its own slice instead of
	// rescanning every end node per cluster.
	offset := make([]int, len(ends)+1)
	for i := range ends {
		if root[i] == i {
			offset[i+1] = size[i]
		}
	}
	for i := 0; i < len(ends); i++ {
		offset[i+1] += offset[i]
	}
	members := make([]int32, len(ends))
	fill := make([]int, len(ends))
	for i := range ends {
		r := root[i]
		members[offset[r]+fill[r]] = int32(i)
		fill[r]++
	}

	// An edge is "inter-junction" when both of its end nodes sit in
	// (possibly different) clusters of size > 1 — it crosses open space
	// between meeting points rather than reaching a boundary.
	interJunction := func(ei int) bool {
		i0, i1 := endsOf[ei][0], endsOf[ei][1]
		if i0 < 0 {
			return false
		}
		return size[root[i0]] > 1 && size[root[i1]] > 1
	}

	// Per cluster, break every cycle among its edges: add edges to a
	// spanning forest in keep-priority order; edges closing a cycle are
	// fake and get deleted.
	edgeMark := make([]int32, len(w.edges))
	var clusterStamp int32
	var edgeIdx []int
	var clusterSites []int32
	for _, r := range order {
		clusterStamp++
		edgeIdx = edgeIdx[:0]
		clusterSites = clusterSites[:0]
		for _, mi := range members[offset[r] : offset[r]+size[r]] {
			ei := ends[mi].edge
			if edgeMark[ei] != clusterStamp && !w.edges[ei].deleted {
				edgeMark[ei] = clusterStamp
				edgeIdx = append(edgeIdx, ei)
				clusterSites = append(clusterSites, w.edges[ei].a, w.edges[ei].b)
			}
		}
		if len(edgeIdx) < 3 {
			continue // fewer than three edges cannot close a junction cycle
		}
		clusterSites = sortedSiteList(clusterSites)
		// Keep-priority: boundary-reaching edges first, then by descending
		// connector index, then by ID for determinism.
		sort.Slice(edgeIdx, func(a, b int) bool {
			ea, eb := edgeIdx[a], edgeIdx[b]
			ja, jb := interJunction(ea), interJunction(eb)
			if ja != jb {
				return !ja // non-inter-junction edges are kept first
			}
			ia, ib := w.index[w.edges[ea].connector], w.index[w.edges[eb].connector]
			if ia != ib {
				return ia > ib
			}
			return ea < eb
		})
		forest := &w.e.uf
		forest.reset(w.g.N())
		for _, ei := range edgeIdx {
			if forest.union(w.edges[ei].a, w.edges[ei].b) {
				continue
			}
			// Closing a junction cycle: fake loop.
			w.edges[ei].deleted = true
			if w.debugf != nil {
				w.debugf("fake junction loop at cluster %d: deleting edge %d (%d-%d)",
					maxMember[r], ei, w.edges[ei].a, w.edges[ei].b)
			}
			w.loops = append(w.loops, Loop{
				Kind:       LoopFake,
				Sites:      append([]int32(nil), clusterSites...),
				Hub:        w.edges[ei].connector,
				EndLoopLen: 0,
			})
		}
	}

	for _, v := range maskOn {
		mask[v] = false
	}
	w.e.cmaskOn = maskOn[:0]

	// Report the surviving independent cycles as genuine loops. The report
	// is a pure function of the ordered non-deleted site-pair list (the
	// spanning forest, adjacency traversal order and cycle tie-breaks all
	// follow that subsequence), so on the incremental path an unchanged list
	// replays the previous update's loops verbatim.
	if w.fcache != nil {
		c := w.fcache
		cur := c.genScratch[:0]
		for _, e := range w.edges {
			if !e.deleted {
				cur = append(cur, SitePair{A: e.a, B: e.b})
			}
		}
		c.genScratch = cur
		if c.genValid && len(cur) == len(c.genPairs) {
			same := true
			for i := range cur {
				if cur[i] != c.genPairs[i] {
					same = false
					break
				}
			}
			if same {
				w.loops = append(w.loops, c.genLoops...)
				return
			}
		}
		start := len(w.loops)
		w.reportGenuineLoops()
		c.genPairs, c.genScratch = cur, c.genPairs[:0]
		c.genLoops = append(c.genLoops[:0], w.loops[start:]...)
		c.genValid = true
		return
	}
	w.reportGenuineLoops()
}

// reportGenuineLoops appends the surviving independent cycles as genuine
// loops.
func (w *refiner) reportGenuineLoops() {
	nontree := w.nonTreeEdges()
	var siteAdj map[int32][]hop
	if len(nontree) > 0 {
		siteAdj = w.siteAdjacency()
	}
	for _, ei := range nontree {
		if cycle := w.minimalCycle(siteAdj, ei); cycle != nil {
			w.loops = append(w.loops, Loop{
				Kind:  LoopGenuine,
				Sites: w.cycleSites(cycle),
				Hub:   -1,
			})
		}
	}
}

// junctionRadius is the flood radius for end-node clustering. Junction
// pockets are a couple of hops wide at any density, but the arcs separating
// a hole ring's end nodes shrink (in hops) as the radio range grows, so the
// radius scales with the mean site-edge path length and is clamped to
// [Alpha+1, Alpha+3].
func (w *refiner) junctionRadius() int32 {
	total, count := 0, 0
	for _, e := range w.edges {
		if !e.deleted {
			total += len(e.path) - 1
			count++
		}
	}
	lo, hi := w.p.Alpha+1, w.p.Alpha+3
	if count == 0 {
		return lo
	}
	r := int32(total) / int32(count) / 3
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}

// floodFrom returns the nodes within the given hop radius of src, not
// entering skeleton nodes (the source is admitted even if on the skeleton);
// skel is the membership mask. The returned slice aliases the engine's queue
// scratch and is only valid until the next flood.
func (w *refiner) floodFrom(src int32, radius int32, skel []bool) []int32 {
	fld := &w.e.fld
	fld.epoch++
	epoch := fld.epoch
	dist, stamp := fld.dist, fld.stamp
	stamp[src] = epoch
	dist[src] = 0
	queue := fld.queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du >= radius {
			continue
		}
		for _, v := range w.g.Neighbors(int(u)) {
			if stamp[v] == epoch {
				continue
			}
			if skel[v] {
				continue
			}
			stamp[v] = epoch
			dist[v] = du + 1
			queue = append(queue, v)
		}
	}
	fld.queue = queue
	return queue
}

// nonTreeEdges returns, for the current site-level graph, the edges outside
// a BFS spanning forest — one per independent cycle.
func (w *refiner) nonTreeEdges() []int {
	uf := &w.e.uf
	uf.reset(w.g.N())
	var nontree []int
	for i, e := range w.edges {
		if e.deleted {
			continue
		}
		if !uf.union(e.a, e.b) {
			nontree = append(nontree, i)
		}
	}
	return nontree
}

// hop is one site-level adjacency entry: the neighboring site vertex and
// the edge index that reaches it.
type hop struct {
	vertex  int32
	viaEdge int
}

// siteAdjacency builds the site-level adjacency of all non-deleted edges
// once; minimalCycle shares it across non-tree edges, masking the probed
// edge by index instead of rebuilding the map per cycle.
func (w *refiner) siteAdjacency() map[int32][]hop {
	adj := make(map[int32][]hop, 2*len(w.edges))
	for i, e := range w.edges {
		if e.deleted {
			continue
		}
		adj[e.a] = append(adj[e.a], hop{vertex: e.b, viaEdge: i})
		adj[e.b] = append(adj[e.b], hop{vertex: e.a, viaEdge: i})
	}
	return adj
}

// minimalCycle returns a shortest site-level cycle through edge ei, as the
// ordered edge-index list, or nil if removing ei disconnects its endpoints
// (no cycle). adj is the full siteAdjacency; ei is masked during the walk,
// which traverses the same hops in the same order as an adjacency built
// without it.
func (w *refiner) minimalCycle(adj map[int32][]hop, ei int) []int {
	src, dst := w.edges[ei].a, w.edges[ei].b
	parent := map[int32]hop{src: {vertex: src, viaEdge: -1}}
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if u == dst {
			break
		}
		for _, h := range adj[u] {
			if h.viaEdge == ei {
				continue
			}
			if _, seen := parent[h.vertex]; !seen {
				parent[h.vertex] = hop{vertex: u, viaEdge: h.viaEdge}
				queue = append(queue, h.vertex)
			}
		}
	}
	if _, ok := parent[dst]; !ok {
		return nil
	}
	cycle := []int{ei}
	for v := dst; v != src; {
		h := parent[v]
		cycle = append(cycle, h.viaEdge)
		v = h.vertex
	}
	return cycle
}

// cycleSites lists the distinct site vertices of a cycle.
func (w *refiner) cycleSites(cycle []int) []int32 {
	out := make([]int32, 0, 2*len(cycle))
	for _, ei := range cycle {
		out = append(out, w.edges[ei].a, w.edges[ei].b)
	}
	return sortedSiteList(out)
}

// sortedSiteList sorts the list ascending and removes duplicates in place.
func sortedSiteList(list []int32) []int32 {
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	dedup := list[:0]
	var prev int32 = -1
	for _, s := range list {
		if len(dedup) == 0 || s != prev {
			dedup = append(dedup, s)
			prev = s
		}
	}
	return dedup
}

// hopDistWithin reports whether dst is within limit hops of src, over the
// engine's stamped scratch.
func (w *refiner) hopDistWithin(src, dst int32, limit int32) bool {
	if src == dst {
		return true
	}
	fld := &w.e.fld
	fld.epoch++
	epoch := fld.epoch
	dist, stamp := fld.dist, fld.stamp
	stamp[src] = epoch
	dist[src] = 0
	queue := fld.queue[:0]
	queue = append(queue, src)
	defer func() { fld.queue = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du >= limit {
			continue
		}
		for _, v := range w.g.Neighbors(int(u)) {
			if stamp[v] == epoch {
				continue
			}
			if v == dst {
				return true
			}
			stamp[v] = epoch
			dist[v] = du + 1
			queue = append(queue, v)
		}
	}
	return false
}

// pruneThreshold resolves the branch-pruning length.
func pruneThreshold(p Params, edges []SiteEdge) int {
	if p.PruneLen > 0 {
		return p.PruneLen
	}
	if len(edges) == 0 {
		return 2
	}
	total := 0
	for _, e := range edges {
		total += len(e.Path) - 1
	}
	auto := int(0.4 * float64(total) / float64(len(edges)))
	if auto < 2 {
		auto = 2
	}
	return auto
}

// pruneBranches iteratively removes leaf branches shorter than minLen hops,
// the paper's final trimming step. A branch is the chain from a leaf to the
// first junction (skeleton degree >= 3); isolated paths (no junction) are
// never pruned away entirely.
func pruneBranches(skel *Skeleton, minLen int) {
	// One node snapshot serves every pass: pruning only removes nodes, and
	// removed nodes drop to degree 0 and skip — the per-pass decisions are
	// identical to re-listing, without re-sorting the survivors each round.
	nodes := skel.Nodes()
	for {
		pruned := false
		for _, v := range nodes {
			if skel.Degree(v) != 1 {
				continue
			}
			chain := []int32{v}
			prev := v
			cur := skel.Neighbors(v)[0]
			for skel.Degree(cur) == 2 {
				chain = append(chain, cur)
				next := skel.Neighbors(cur)[0]
				if next == prev {
					next = skel.Neighbors(cur)[1]
				}
				prev, cur = cur, next
			}
			if skel.Degree(cur) < 3 {
				continue // a free-standing path, not a branch
			}
			if len(chain) >= minLen {
				continue
			}
			for _, u := range chain {
				skel.RemoveNode(u)
			}
			pruned = true
		}
		if !pruned {
			return
		}
	}
}

// unionFind is a dense union-find over 0..n-1.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// PruneLeafBranches removes leaf branches shorter than minLen hops from any
// skeleton. Exported because the CASE baseline shares the paper's pruning
// step.
func PruneLeafBranches(skel *Skeleton, minLen int) {
	pruneBranches(skel, minLen)
}
