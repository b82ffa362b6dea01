package graph

// Freeze compacts the adjacency lists into a CSR (compressed sparse row)
// layout: one offsets array and one flat targets array holding every list
// back to back. The per-node lists are rewired to capacity-capped views into
// the arena, so Neighbors iteration — the inner loop of every BFS — walks a
// single contiguous array instead of chasing per-node allocations, and the
// bit-parallel MS-BFS kernel can index edges directly.
//
// Build and SortAdjacency freeze automatically; hand-built graphs stay
// usable unfrozen until an all-sources flood (AllKHopCounts, BallSizesInto)
// freezes them on demand. Freezing an already-frozen graph is a no-op.
// Freeze mutates the graph and must not run concurrently with readers.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	n := len(g.adj)
	if cap(g.offsets) < n+1 {
		g.offsets = make([]int32, n+1)
	}
	g.offsets = g.offsets[:n+1]
	total := 0
	for v, nbrs := range g.adj {
		g.offsets[v] = int32(total)
		total += len(nbrs)
	}
	g.offsets[n] = int32(total)
	// The targets arena is always freshly allocated: after a thaw the old
	// lists still alias the previous arena, so compacting in place would
	// overwrite rows that are yet to be copied.
	targets := make([]int32, total)
	for v, nbrs := range g.adj {
		lo, hi := g.offsets[v], g.offsets[v+1]
		copy(targets[lo:hi], nbrs)
		g.adj[v] = targets[lo:hi:hi]
	}
	g.targets = targets
	g.frozen = true
}

// Frozen reports whether the graph is in its CSR form.
func (g *Graph) Frozen() bool { return g.frozen }

// csr returns the CSR arrays; ok is false while the graph is thawed (then
// the arrays may be stale and must not be used).
func (g *Graph) csr() (offsets, targets []int32, ok bool) {
	return g.offsets, g.targets, g.frozen
}

// Offsets exposes the frozen CSR offsets array (length N+1): node v's
// adjacency occupies positions offsets[v]..offsets[v+1] of the edge arena,
// so offsets[v+1]-offsets[v] is its degree. Callers that lay out per-node
// buffers with degree capacity (the simnet round engine's inbox arena) index
// them with the same array instead of recomputing a prefix sum. ok is false
// while the graph is thawed; the slice is shared and must not be modified.
func (g *Graph) Offsets() (offsets []int32, ok bool) {
	return g.offsets, g.frozen
}
