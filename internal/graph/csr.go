package graph

import (
	"fmt"
	"slices"
)

// fromUpper assembles a frozen graph from its upper triangle: node v's
// count[v] neighbours u > v, ascending, back to back in node order across
// runs (one per Build chunk; no list straddles two). Row v receives its
// backward entries in ascending order, then its forward list, so rows come
// out sorted without a sort.
func fromUpper(count []int32, runs [][]int32) *Graph {
	n := len(count)
	// offsets[v+1] holds v's degree, then row v's start, then its end.
	offsets := make([]int32, n+1)
	copy(offsets[1:], count)
	for _, run := range runs {
		for _, u := range run {
			offsets[u+1]++
		}
	}
	var total int32
	for v := 1; v <= n; v++ {
		offsets[v], total = total, total+offsets[v]
	}
	targets := make([]int32, total)
	v := 0
	for _, run := range runs {
		for ; len(run) > 0; v++ {
			fwd := run[:count[v]]
			run = run[count[v]:]
			// Every w < v has already written its entry into row v.
			at := offsets[v+1]
			copy(targets[at:], fwd)
			offsets[v+1] = at + count[v]
			for _, u := range fwd {
				targets[offsets[u+1]] = int32(v)
				offsets[u+1]++
			}
		}
	}
	adj := make([][]int32, n)
	for v := range adj {
		lo, hi := offsets[v], offsets[v+1]
		adj[v] = targets[lo:hi:hi]
	}
	return &Graph{adj: adj, edges: int(total) / 2, offsets: offsets, targets: targets, frozen: true}
}

// FromEdges returns the frozen graph over nodes 0..n-1 with the given
// undirected edges in any order and orientation. It rejects an endpoint out
// of range, a self-loop or an edge listed twice, naming the first it finds.
func FromEdges(n int, edges [][2]int32) (*Graph, error) {
	// Sorted lower<<32|upper keys are the upper triangle, bucketed by u.
	keys := make([]uint64, len(edges))
	for k, e := range edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if u < 0 || int(v) >= n {
			return nil, fmt.Errorf("edge %d %v references a node outside 0..%d", k, e, n-1)
		}
		if u == v {
			return nil, fmt.Errorf("edge %d %v is a self-loop", k, e)
		}
		keys[k] = uint64(u)<<32 | uint64(v)
	}
	slices.Sort(keys)
	count := make([]int32, n)
	fwd := make([]int32, len(keys))
	for k, key := range keys {
		if k > 0 && key == keys[k-1] {
			return nil, fmt.Errorf("edge [%d %d] is listed twice", key>>32, uint32(key))
		}
		count[key>>32]++
		fwd[k] = int32(uint32(key))
	}
	return fromUpper(count, [][]int32{fwd}), nil
}

// Freeze compacts the adjacency lists of a hand-built graph into the CSR
// (compressed sparse row) layout: one offsets array and one flat targets
// array holding every list back to back. The per-node lists are rewired to
// capacity-capped views into the arena, so Neighbors iteration — the inner
// loop of every BFS — walks a single contiguous array instead of chasing
// per-node allocations, and the bit-parallel MS-BFS kernel can index edges
// directly. Rows keep their insertion order (SortAdjacency sorts them).
//
// Hand-built graphs stay usable unfrozen until an all-sources flood
// (AllKHopCounts, BallSizesInto) freezes them on demand. Freezing an
// already-frozen graph is a no-op. Freeze mutates the graph and must not
// run concurrently with readers.
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
