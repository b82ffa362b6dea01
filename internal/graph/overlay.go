// Thaw-free CSR overlay for node churn. Removing or reviving nodes through
// the overlay keeps the graph frozen: a tombstone bitmap marks dead nodes and
// every affected adjacency window is re-filtered in place against a pristine
// copy of the CSR arena, with a per-node effective-end array consulted by the
// bit-parallel kernels. The walker paths need no changes at all — the
// per-node list views are rewired to the shortened windows.
//
// The overlay supports exactly the churn model of the incremental extractor:
// node IDs are stable, removals tombstone a node and detach its edges, and
// additions revive previously removed nodes (restoring their base edges to
// whatever endpoints are alive). Because base adjacency is a superset of
// every effective adjacency, windows can always be rebuilt by filtering the
// pristine arena, which also keeps them sorted — the property every
// canonical tie-break in the pipeline relies on.
package graph

import "sort"

// overlay carries the churn state of a frozen graph.
type overlay struct {
	dead      []bool
	deadCount int
	// baseTargets is the pristine CSR arena captured when the overlay was
	// created; it is never modified and backs window rebuilds and the
	// base-adjacency accessors used for dirty-region bounds.
	baseTargets []int32
	// ends[v] is the effective end of v's window in the working arena:
	// the live neighbors of v are targets[offsets[v]:ends[v]].
	ends []int32
	// patchBuf accumulates the nodes whose windows a mutation rebuilt.
	patchBuf []int32
}

// BeginOverlay puts the graph into overlay mode: the CSR arena is cloned so
// the base adjacency stays pristine, and subsequent RemoveNodes/ReviveNodes
// calls edit the clone in place without ever thawing. Requires a frozen
// graph; calling it again is a no-op. While an overlay is active AddEdge
// must not be used (it would thaw the graph out from under the overlay).
func (g *Graph) BeginOverlay() {
	if g.ov != nil {
		return
	}
	if !g.frozen {
		panic("graph: BeginOverlay requires a frozen graph")
	}
	n := g.N()
	work := make([]int32, len(g.targets))
	copy(work, g.targets)
	ends := make([]int32, n)
	for v := 0; v < n; v++ {
		ends[v] = g.offsets[v+1]
	}
	ov := &overlay{
		dead:        make([]bool, n),
		baseTargets: g.targets,
		ends:        ends,
	}
	g.targets = work
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		g.adj[v] = work[lo:hi:hi]
	}
	g.ov = ov
}

// Alive reports whether v is currently alive. Graphs without an overlay
// have every node alive.
func (g *Graph) Alive(v int32) bool { return g.ov == nil || !g.ov.dead[v] }

// DeadMask returns the tombstone bitmap (true = removed), or nil when the
// graph has no overlay or no dead nodes. The slice is shared and must not
// be modified.
func (g *Graph) DeadMask() []bool {
	if g.ov == nil || g.ov.deadCount == 0 {
		return nil
	}
	return g.ov.dead
}

// AliveCount returns the number of alive nodes.
func (g *Graph) AliveCount() int {
	if g.ov == nil {
		return g.N()
	}
	return g.N() - g.ov.deadCount
}

// BaseNeighbors returns v's adjacency in the base (pre-churn) graph, dead
// endpoints included. Without an overlay it is identical to Neighbors. The
// slice is shared and must not be modified.
func (g *Graph) BaseNeighbors(v int32) []int32 {
	if g.ov == nil {
		return g.adj[v]
	}
	return g.ov.baseTargets[g.offsets[v]:g.offsets[v+1]]
}

// RemoveNodes tombstones the given nodes and detaches their edges. Nodes
// already dead are ignored. It returns the sorted list of nodes whose
// adjacency windows were rebuilt — the removed nodes plus their alive
// neighbors — which incremental callers use to seed dirty regions and
// invalidate flood caches. The returned slice is reused by the next
// mutation.
func (g *Graph) RemoveNodes(nodes []int32) []int32 {
	g.BeginOverlay()
	ov := g.ov
	fresh := ov.patchBuf[:0]
	for _, v := range nodes {
		if !ov.dead[v] {
			ov.dead[v] = true
			ov.deadCount++
			fresh = append(fresh, v)
		}
	}
	// Edge accounting over the pre-rebuild windows: each edge from a newly
	// dead node to a survivor counts once, edges between two newly dead
	// nodes count once via the lower-ID endpoint.
	for _, v := range fresh {
		for _, u := range g.adj[v] {
			if !ov.dead[u] || (u > v && isIn(fresh, u)) {
				g.edges--
			}
		}
	}
	patched := g.rebuildAround(fresh)
	ov.patchBuf = patched
	return patched
}

// ReviveNodes brings previously removed nodes back, restoring their base
// edges to alive endpoints. Nodes already alive are ignored. Like
// RemoveNodes it returns the sorted list of rebuilt nodes (the revived
// nodes plus their alive neighbors); the slice is reused by the next
// mutation.
func (g *Graph) ReviveNodes(nodes []int32) []int32 {
	g.BeginOverlay()
	ov := g.ov
	fresh := ov.patchBuf[:0]
	for _, v := range nodes {
		if ov.dead[v] {
			ov.dead[v] = false
			ov.deadCount--
			fresh = append(fresh, v)
		}
	}
	// Edge accounting over base adjacency against the post-revive alive
	// set: revived-to-survivor edges count once, revived-to-revived once.
	for _, v := range fresh {
		for _, u := range g.BaseNeighbors(v) {
			if !ov.dead[u] && (!isIn(fresh, u) || u > v) {
				g.edges++
			}
		}
	}
	patched := g.rebuildAround(fresh)
	ov.patchBuf = patched
	return patched
}

// rebuildAround re-filters the adjacency windows of every node in fresh and
// of their alive base neighbors, returning the sorted, deduplicated list of
// rebuilt nodes (reusing fresh's backing array where possible).
func (g *Graph) rebuildAround(fresh []int32) []int32 {
	ov := g.ov
	patched := fresh
	for _, v := range fresh {
		for _, u := range g.BaseNeighbors(v) {
			if !ov.dead[u] {
				patched = append(patched, u)
			}
		}
	}
	sort.Slice(patched, func(i, j int) bool { return patched[i] < patched[j] })
	dedup := patched[:0]
	var prev int32 = -1
	for _, v := range patched {
		if len(dedup) == 0 || v != prev {
			dedup = append(dedup, v)
			prev = v
		}
	}
	for _, v := range dedup {
		g.rebuildWindow(v)
	}
	return dedup
}

// rebuildWindow re-filters v's window from the pristine base adjacency:
// dead nodes keep an empty window, alive nodes keep exactly their alive
// base neighbors. Filtering the sorted base row preserves sorted order.
func (g *Graph) rebuildWindow(v int32) {
	ov := g.ov
	lo, hi := g.offsets[v], g.offsets[v+1]
	end := lo
	if !ov.dead[v] {
		for _, u := range ov.baseTargets[lo:hi] {
			if !ov.dead[u] {
				g.targets[end] = u
				end++
			}
		}
	}
	ov.ends[v] = end
	g.adj[v] = g.targets[lo:end:hi]
}

// isIn reports membership in a small unsorted batch (churn batches are tens
// of nodes; a linear scan beats building a set).
func isIn(batch []int32, v int32) bool {
	for _, b := range batch {
		if b == v {
			return true
		}
	}
	return false
}

// csrEff returns the CSR arrays together with the per-node effective end
// array the kernels iterate by: node u's live neighbors are
// targets[offsets[u]:ends[u]]. Without an overlay, ends aliases
// offsets[1:], so the no-churn path costs nothing extra.
func (g *Graph) csrEff() (offsets, targets, ends []int32, ok bool) {
	if g.ov != nil {
		return g.offsets, g.targets, g.ov.ends, g.frozen
	}
	if len(g.offsets) > 0 {
		return g.offsets, g.targets, g.offsets[1:], g.frozen
	}
	return g.offsets, g.targets, nil, g.frozen
}
