package core

import (
	"sort"

	"bfskel/internal/graph"
)

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
	cellOf []int32, edges []SiteEdge, st *Stats) ([]Loop, *Skeleton) {

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

// refiner carries the mutable state of Phase 4. The parallel-connector
// reach matrix runs on the engine's walkers through the batched bounded
// kernel, 64 connectors per pass; the end-node clustering is one serial
// multi-source BFS over the engine's flood scratch (clusterEnds).
type refiner struct {
	e       *Extractor
	g       *graph.Graph
	p       Params
	index   []float64
	records [][]SiteDist
	cellOf  []int32
	edges   []wEdge
	loops   []Loop
	// debugf, when non-nil, receives a trace of every classification.
	debugf func(format string, args ...any)
}

// newRefiner sets up the phase state, sizing the engine's flood scratch to
// the graph.
func (e *Extractor) newRefiner(p Params, index []float64, records [][]SiteDist, cellOf []int32) *refiner {
	e.fld.ensure(e.g.N())
	return &refiner{
		e: e, g: e.g, p: p, index: index, records: records, cellOf: cellOf,
	}
}

// build assembles the node-level skeleton from the surviving edges. Paths
// of different edges share links (reverse paths to a common site coincide
// near the site), so the skeleton is always rebuilt rather than updated
// incrementally.
func (w *refiner) build() *Skeleton {
	return skeletonOf(w.g.N(), len(w.edges), func(i int) []int32 {
		if w.edges[i].deleted {
			return nil
		}
		return w.edges[i].path
	})
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
	var conns []int32
	var reach []uint64
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
		// One bit-parallel flood per 64 connectors yields the exact pairwise
		// within-nearLimit matrix: bit i of reach[c*m+j] is set iff connector
		// j lies within nearLimit hops of connector 64c+i.
		m := len(idxs)
		conns = conns[:0]
		for _, ei := range idxs {
			conns = append(conns, w.edges[ei].connector)
		}
		reach = grow(reach, (m+63)/64*m)
		wk := w.e.getWalker()
		for c := 0; c*64 < m; c++ {
			wk.BoundedReach(conns[c*64:min((c+1)*64, m)], nearLimit, conns, reach[c*m:(c+1)*m])
		}
		w.e.putWalker(wk)
		kept := []int{0}
		for a := 1; a < m; a++ {
			redundant := false
			for _, kj := range kept {
				if reach[kj/64*m+a]&(uint64(1)<<uint(kj%64)) != 0 {
					redundant = true
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
	// The clustering BFS only reads skeleton membership, never skeleton
	// adjacency, so a pooled mask over the active edges' paths stands in
	// for the full skeleton build; the set bits are tracked for O(set)
	// clearing below.
	mask := grow(w.e.cmask, w.g.N())
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
	// its one or two entries. The tables below live on the engine.
	cs := &w.e.cls
	ends := cs.ends[:0]
	endsOf := grow(cs.endsOf, len(w.edges))
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
	// crossing the skeleton; end nodes whose floods touch are merged.
	// Union-find roots follow union order, so nothing downstream reads
	// them; clusters are keyed by their largest member index instead (see
	// below).
	uf := &w.e.uf
	uf.reset(len(ends))
	w.e.clusterEnds(uf, ends, radius, mask)

	// Resolve clusters. The canonical cluster key is the largest member
	// index: it is a pure function of the partition (unlike the union-find
	// root, which depends on union order), and it equals the root the
	// historical serial unions produced, so cluster processing order — which
	// decides which shared edges get deleted first — is unchanged.
	cs.ends, cs.endsOf = ends, endsOf
	m := len(ends)
	cs.ints = grow(cs.ints, 5*m+1)
	clear(cs.ints)
	root, size, maxMember := cs.ints[:m], cs.ints[m:2*m], cs.ints[2*m:3*m]
	offset, fill := cs.ints[3*m:4*m+1], cs.ints[4*m+1:]
	// Copy the roots out: the per-cluster forest below resets uf.
	for i := range ends {
		root[i] = int(uf.find(int32(i)))
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
	for i := range ends {
		if root[i] == i {
			offset[i+1] = size[i]
		}
	}
	for i := 0; i < len(ends); i++ {
		offset[i+1] += offset[i]
	}
	cs.members = grow(cs.members, m)
	members := cs.members
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
	cs.edgeMark = grow(cs.edgeMark, len(w.edges))
	edgeMark := cs.edgeMark
	clear(edgeMark)
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

	// Report the surviving independent cycles as genuine loops.
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

// endRef is one end node of a working edge, as loop classification
// clusters them.
type endRef struct {
	edge int
	node int32
}

// classifyScratch holds classifyLoops' tables on the engine, so a warm
// extraction allocates none of them: the end nodes, each edge's entries
// among them, the cluster tables (root, size, max member, bucket offsets
// and fill cursors, one int slice cut five ways) with the bucketed
// members, and the per-edge cluster stamps.
type classifyScratch struct {
	ends     []endRef
	endsOf   [][2]int32
	ints     []int
	members  []int32
	edgeMark []int32
}

// clusterEnds unites in uf, a union-find over end indices, the end nodes
// whose skeleton-avoiding floods touch: end i's flood enters, up to radius
// hops from ends[i].node, only nodes outside mask (the end itself expands
// regardless), and two ends unite when their floods share a node. One
// multi-source BFS from every end finds the same partition. It enters only unmasked nodes and hands each the end that
// reached it first; ends on one node unite at once, and scanning a node u
// at level d < radius unites u's end with that of every reached neighbor
// v, unless u and v are both masked. Two floods share a node exactly when
// a path of at most 2·radius hops with an unmasked interior joins their
// ends (a one-hop path needs one unmasked end): every edge of such a path
// is scanned from its lower-level node, and every union closes such a
// path. Nodes at level radius are reached but not scanned.
//
// The owners (end index + 1, 0 unreached) borrow the flood scratch's vals,
// zeroed again over the BFS queue, which borrows its queue. The stage's
// work counters take one sweep per end and one visit per reached node.
func (e *Extractor) clusterEnds(uf *stampedUF, ends []endRef, radius int32, mask []bool) {
	owner, queue := e.fld.vals, e.fld.queue[:0]
	for i, er := range ends {
		if o := owner[er.node]; o != 0 {
			uf.union(o-1, int32(i))
		} else {
			owner[er.node] = int32(i) + 1
			queue = append(queue, er.node)
		}
	}
	for d, lo := int32(0), 0; d < radius && lo < len(queue); d++ {
		hi := len(queue)
		for _, u := range queue[lo:hi] {
			ou := owner[u]
			for _, v := range e.g.Neighbors(int(u)) {
				switch ov := owner[v]; {
				case ov == 0:
					if !mask[v] {
						owner[v] = ou
						queue = append(queue, v)
					}
				case ov != ou && !(mask[u] && mask[v]):
					uf.union(ou-1, ov-1)
				}
			}
		}
		lo = hi
	}
	for _, v := range queue {
		owner[v] = 0
	}
	e.sweeps.Add(int64(len(ends)))
	e.visited.Add(int64(len(queue)))
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

// PruneLeafBranches removes leaf branches shorter than minLen hops from any
// skeleton. Exported because the CASE baseline shares the paper's pruning
// step.
func PruneLeafBranches(skel *Skeleton, minLen int) {
	pruneBranches(skel, minLen)
}
