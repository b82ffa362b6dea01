// CSR overlay for node churn. Removing or reviving nodes through the overlay
// edits the graph in place: a tombstone bitmap marks dead nodes and every
// affected adjacency row is re-filtered against a pristine copy of the CSR
// arena, shortening its end in the graph's ends array, which Neighbors,
// Degree and every kernel read.
//
// The overlay supports exactly the churn model of the incremental extractor:
// node IDs are stable, removals tombstone a node and detach its edges, and
// additions revive previously removed nodes (restoring their base edges to
// whatever endpoints are alive). Because base adjacency is a superset of
// every effective adjacency, rows can always be rebuilt by filtering the
// pristine arena, which also keeps them sorted — the property every
// canonical tie-break in the pipeline relies on.
package graph

import "slices"

// overlay carries the churn state of a graph.
type overlay struct {
	dead      []bool
	deadCount int
	// baseTargets is the pristine CSR arena captured when the overlay was
	// created; it is never modified and backs row rebuilds and the
	// base-adjacency accessors used for dirty-region bounds.
	baseTargets []int32
	// patchBuf accumulates the nodes whose rows a mutation rebuilt.
	patchBuf []int32
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
		return g.Neighbors(int(v))
	}
	return g.ov.baseTargets[g.offsets[v]:g.offsets[v+1]]
}

// RemoveNodes tombstones the given nodes and detaches their edges. Nodes
// already dead are ignored. It returns the sorted list of nodes whose
// adjacency windows were rebuilt — the removed nodes plus their alive
// neighbors — which incremental callers use to seed dirty regions. The
// returned slice is reused by the next
// mutation.
func (g *Graph) RemoveNodes(nodes []int32) []int32 { return g.flip(nodes, false) }

// ReviveNodes brings previously removed nodes back, restoring their base
// edges to alive endpoints. Nodes already alive are ignored. Like
// RemoveNodes it returns the sorted list of rebuilt nodes (the revived
// nodes plus their alive neighbors); the slice is reused by the next
// mutation.
func (g *Graph) ReviveNodes(nodes []int32) []int32 { return g.flip(nodes, true) }

// flip brings the listed nodes to the given liveness, skipping those
// already there, updates the edge count and rebuilds the touched rows.
func (g *Graph) flip(nodes []int32, alive bool) []int32 {
	ov := g.ov
	if ov == nil {
		// The first mutation starts the overlay: the base arena stays
		// pristine, and the arrays mutations edit are cloned.
		ov = &overlay{dead: make([]bool, g.N()), baseTargets: g.targets}
		g.targets, g.ends, g.ov = slices.Clone(g.targets), slices.Clone(g.ends), ov
	}
	fresh := ov.patchBuf[:0]
	for _, v := range nodes {
		if ov.dead[v] == alive {
			ov.dead[v] = !alive
			fresh = append(fresh, v)
		}
	}
	// Every base edge from a flipped node to an alive unflipped one
	// appears or vanishes, and so does every edge between two flipped
	// nodes, counted once from the lower-ID endpoint.
	delta := 0
	for _, v := range fresh {
		for _, u := range ov.baseTargets[g.offsets[v]:g.offsets[v+1]] {
			if isIn(fresh, u) {
				if u > v {
					delta++
				}
			} else if !ov.dead[u] {
				delta++
			}
		}
	}
	sign := 1
	if !alive {
		sign = -1
	}
	g.edges += sign * delta
	ov.deadCount -= sign * len(fresh)
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
	slices.Sort(patched)
	dedup := slices.Compact(patched)
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
	g.ends[v] = end
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
