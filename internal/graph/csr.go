package graph

import (
	"fmt"
	"slices"
)

// fromUpper assembles a graph from its upper triangle: node v's
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
	return &Graph{offsets: offsets, targets: targets, ends: offsets[1:], edges: int(total) / 2}
}

// FromEdges returns the graph over nodes 0..n-1 with the given
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

// Offsets exposes the CSR offsets array (length N+1): node v's base row
// occupies positions offsets[v]..offsets[v+1] of the edge arena, so
// offsets[v+1]-offsets[v] bounds its degree (an overlay may shorten the
// row, never lengthen it). Callers that lay out per-node buffers with
// degree capacity (the simnet round engine's inbox arena) index them with
// the same array instead of recomputing a prefix sum. The slice is shared
// and must not be modified.
func (g *Graph) Offsets() []int32 { return g.offsets }
