// Package segment implements the location-free shape segmentation
// application the paper motivates (Sec. I, refs. [12][18]): dividing an
// irregular network into nicely shaped pieces. Two methods are provided:
//
//   - MergeCells: the skeleton-based method sketched in the paper's
//     introduction — nearby skeleton nodes are merged into sinks, and each
//     Voronoi cell joins its site's sink, so every segment is a union of
//     cells along one structural part of the field.
//
//   - FlowToSinks: the classic distance-transform method (Zhu, Sarkar,
//     Gao) the paper describes: every node computes its hop distance to the
//     boundaries, "flows" to a parent with larger distance, and nodes
//     flowing to the same local maximum (sink) form a segment.
//
// Both consume only connectivity-derived inputs (the extraction result and
// the boundary by-product), so segmentation stays boundary- and
// location-free end to end.
package segment

import (
	"slices"
	"sort"

	"bfskel/internal/core"
	"bfskel/internal/graph"
)

// Result is a segmentation: a label per node plus the sink of each segment.
type Result struct {
	// SegmentOf labels every node with its segment's sink node ID (-1 when
	// unassigned).
	SegmentOf []int32
	// Sinks lists the distinct segment representatives, sorted.
	Sinks []int32
}

// NumSegments returns the number of segments.
func (r *Result) NumSegments() int { return len(r.Sinks) }

// Sizes returns the node count per sink.
func (r *Result) Sizes() map[int32]int {
	sizes := make(map[int32]int, len(r.Sinks))
	for _, s := range r.SegmentOf {
		if s >= 0 {
			sizes[s]++
		}
	}
	return sizes
}

// MergeCells merges Voronoi cells whose sites lie within mergeRadius hops
// of each other along the skeleton, and labels every node with its site's
// merged sink. Sites in the same structural part (one corridor, one branch)
// are chained along the skeleton and collapse into one segment; sites in
// different parts are separated by junctions farther apart than the radius.
func MergeCells(res *core.Result, mergeRadius int) *Result {
	n := len(res.CellOf)
	// parent is a union-find over the sites' node IDs; dist holds one
	// site's skeleton BFS distances, -1 off its queue.
	parent := make([]int32, n)
	isSite := make([]bool, n)
	for _, s := range res.Sites {
		parent[s] = s
		isSite[s] = true
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	dist := make([]int32, n)
	for v := range dist {
		dist[v] = -1
	}
	// BFS along the skeleton from every site, unioning sites met within
	// the radius.
	var queue []int32
	for _, s := range res.Sites {
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if int(dist[u]) >= mergeRadius {
				continue
			}
			for _, v := range res.Skeleton.Neighbors(u) {
				if dist[v] >= 0 {
					continue
				}
				dist[v] = dist[u] + 1
				queue = append(queue, v)
				if isSite[v] {
					ra, rb := find(s), find(v)
					if ra != rb {
						parent[rb] = ra
					}
				}
			}
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}

	out := &Result{SegmentOf: make([]int32, n)}
	listed := make([]bool, n)
	for v, c := range res.CellOf {
		if c < 0 {
			out.SegmentOf[v] = -1
			continue
		}
		sink := find(c)
		out.SegmentOf[v] = sink
		if !listed[sink] {
			listed[sink] = true
			out.Sinks = append(out.Sinks, sink)
		}
	}
	sort.Slice(out.Sinks, func(i, j int) bool { return out.Sinks[i] < out.Sinks[j] })
	return out
}

// FlowToSinks runs the distance-transform segmentation: hop distances from
// the given boundary nodes (in any order, repeats allowed); every node picks as parent its neighbor with
// the largest boundary distance (ties to the lowest ID) when that distance
// exceeds its own; local maxima become sinks. mergeRadius optionally unions
// sinks within that many hops of each other, absorbing the many shallow
// local maxima a discrete distance transform produces.
func FlowToSinks(g *graph.Graph, boundaryNodes []int32, mergeRadius int) *Result {
	n := g.N()
	// The boundary distance transform is the Voronoi stage's dmin over the
	// boundary nodes as sources (slack 0 keeps the records to the nearest).
	srcs := slices.Clone(boundaryNodes)
	slices.Sort(srcs)
	dist, _ := core.VoronoiRecords(g, slices.Compact(srcs), 0)

	// Flow uphill: parent = the neighbor with the largest distance,
	// breaking plateau ties toward lower IDs (each plateau drains to its
	// lowest-ID member, which keeps the flow acyclic); nodes with no
	// higher-or-equal-lower-ID neighbor are their own parents (sinks).
	parent := make([]int32, n)
	for v := 0; v < n; v++ {
		parent[v] = int32(v)
		if dist[v] == graph.Unreachable {
			continue
		}
		best := int32(v)
		for _, u := range g.Neighbors(v) {
			if dist[u] == graph.Unreachable {
				continue
			}
			uphill := dist[u] > dist[best] ||
				(dist[u] == dist[best] && u < best)
			if uphill {
				best = u
			}
		}
		parent[v] = best
	}

	// Resolve every node to its sink (path compression over the DAG).
	sinkOf := make([]int32, n)
	for i := range sinkOf {
		sinkOf[i] = -1
	}
	var resolve func(v int32) int32
	resolve = func(v int32) int32 {
		if sinkOf[v] != -1 {
			return sinkOf[v]
		}
		if parent[v] == v {
			sinkOf[v] = v
			return v
		}
		sinkOf[v] = resolve(parent[v])
		return sinkOf[v]
	}
	for v := int32(0); int(v) < n; v++ {
		if dist[v] != graph.Unreachable {
			resolve(v)
		}
	}

	// Optionally merge nearby sinks; each merged group is represented by
	// its deepest sink (largest boundary distance, lowest ID on ties).
	if mergeRadius > 0 {
		remap := mergeNearbySinks(g, sinkOf, dist, mergeRadius)
		for v := range sinkOf {
			if sinkOf[v] >= 0 {
				sinkOf[v] = remap[sinkOf[v]]
			}
		}
	}

	out := &Result{SegmentOf: sinkOf}
	seen := make(map[int32]bool)
	for _, s := range sinkOf {
		if s >= 0 && !seen[s] {
			seen[s] = true
			out.Sinks = append(out.Sinks, s)
		}
	}
	sort.Slice(out.Sinks, func(i, j int) bool { return out.Sinks[i] < out.Sinks[j] })
	return out
}

// mergeNearbySinks unions sinks within radius hops of each other and maps
// every sink to its group's deepest member.
func mergeNearbySinks(g *graph.Graph, sinkOf []int32, dist []int32, radius int) map[int32]int32 {
	var sinks []int32
	seen := make(map[int32]bool)
	for _, s := range sinkOf {
		if s >= 0 && !seen[s] {
			seen[s] = true
			sinks = append(sinks, s)
		}
	}
	sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })

	parent := make(map[int32]int32, len(sinks))
	for _, s := range sinks {
		parent[s] = s
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	isSink := make(map[int32]bool, len(sinks))
	for _, s := range sinks {
		isSink[s] = true
	}
	w := graph.NewWalker(g)
	for _, s := range sinks {
		w.Walk(int(s), radius, func(v, _ int32) {
			if isSink[v] {
				ra, rb := find(s), find(v)
				if ra != rb {
					parent[rb] = ra
				}
			}
		})
	}
	// Representative = the deepest sink of each group.
	deepest := make(map[int32]int32, len(sinks))
	for _, s := range sinks {
		r := find(s)
		cur, ok := deepest[r]
		if !ok || dist[s] > dist[cur] || (dist[s] == dist[cur] && s < cur) {
			deepest[r] = s
		}
	}
	remap := make(map[int32]int32, len(sinks))
	for _, s := range sinks {
		remap[s] = deepest[find(s)]
	}
	return remap
}
