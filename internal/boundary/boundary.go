// Package boundary provides connectivity-based boundary recognition — the
// substrate that the MAP and CASE baselines assume as given input, and the
// yardstick for the skeleton pipeline's boundary by-product.
//
// The detector follows the statistical observation of Fekete et al. (the
// paper's reference [8]): nodes near a boundary see markedly fewer K-hop
// neighbors than interior nodes. Detected nodes are then organised into
// boundary cycles, which MAP and CASE need to reason about boundary
// branches.
package boundary

import (
	"slices"
	"sort"

	"bfskel/internal/graph"
)

// The detector's parameters are fixed: no caller has needed other values.
const (
	// k is the neighborhood radius used for the size statistic, the
	// pipeline's K.
	k = 4
	// fraction is the detection threshold: a node is a boundary candidate
	// when its k-hop size is below fraction x the component median. 0.85
	// detects the boundary band with precision ~1.0 on calibration fields.
	fraction = 0.85
)

// Result carries the detected boundary.
type Result struct {
	// Nodes are the boundary nodes, sorted by ID.
	Nodes []int32
	// IsBoundary is the membership mask.
	IsBoundary []bool
	// Cycles groups the boundary nodes into closed chains (one per
	// boundary curve: the outer boundary plus one per hole), each ordered
	// along the curve. Small fragments that could not be chained are
	// returned as open chains.
	Cycles [][]int32
	// KHop is the statistic used (|N_K| per node).
	KHop []int
}

// CycleOf returns the index of the cycle containing v, or -1.
func (r *Result) CycleOf(v int32) int {
	for i, c := range r.Cycles {
		for _, u := range c {
			if u == v {
				return i
			}
		}
	}
	return -1
}

// Detect runs the neighborhood-size boundary detector.
func Detect(g *graph.Graph) *Result {
	khop := g.AllKHopCounts(k)
	n := g.N()
	res := &Result{IsBoundary: make([]bool, n), KHop: khop}
	if n == 0 {
		return res
	}
	sorted := make([]int, n)
	copy(sorted, khop)
	sort.Ints(sorted)
	cut := fraction * float64(sorted[n/2])
	for v := 0; v < n; v++ {
		if float64(khop[v]) < cut && g.Degree(v) > 0 {
			res.IsBoundary[v] = true
			res.Nodes = append(res.Nodes, int32(v))
		}
	}
	res.Cycles = chainCycles(g, res.IsBoundary)
	return res
}

// chainCycles groups boundary nodes into chains: connected components of
// the boundary-induced subgraph, each ordered by a farthest-point double
// sweep so consecutive chain entries are near each other along the curve.
func chainCycles(g *graph.Graph, isBoundary []bool) [][]int32 {
	n := g.N()
	seen := make([]bool, n)
	w := graph.NewWalker(g)
	var cycles [][]int32
	for v := 0; v < n; v++ {
		if !isBoundary[v] || seen[v] {
			continue
		}
		// Collect the component over boundary nodes (allowing one
		// intermediate non-boundary hop so sparse sampling does not break
		// the chain).
		comp := boundaryComponent(g, int32(v), isBoundary, seen)
		if len(comp) < 3 {
			cycles = append(cycles, comp)
			continue
		}
		cycles = append(cycles, orderChain(w, comp))
	}
	// Largest cycle first: callers treat Cycles[0] as the outer boundary.
	sort.Slice(cycles, func(i, j int) bool { return len(cycles[i]) > len(cycles[j]) })
	return cycles
}

// boundaryComponent gathers the boundary nodes reachable from start through
// boundary nodes, bridging single non-boundary hops.
func boundaryComponent(g *graph.Graph, start int32, isBoundary []bool, seen []bool) []int32 {
	var comp []int32
	queue := []int32{start}
	seen[start] = true
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		comp = append(comp, u)
		for _, w := range g.Neighbors(int(u)) {
			if isBoundary[w] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
				continue
			}
			for _, x := range g.Neighbors(int(w)) {
				if isBoundary[x] && !seen[x] {
					seen[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	return comp
}

// orderChain orders a boundary component along the curve: band distances
// from an extreme node give a 1D coordinate along the (locally path-like)
// boundary band. comp must be sorted.
func orderChain(w *graph.Walker, comp []int32) []int32 {
	// Double sweep to find an extreme, then order by distance from it, ties
	// by node ID: each key packs (distance, node).
	far := w.BandWalk(comp, comp[0], nil)
	keys := make([]int64, len(comp))
	for i, v := range comp {
		keys[i] = int64(v)
	}
	w.BandWalk(comp, far, func(v, d int32) {
		i, _ := slices.BinarySearch(comp, v)
		keys[i] = int64(d)<<32 | int64(v)
	})
	slices.Sort(keys)
	ordered := make([]int32, len(comp))
	for i, k := range keys {
		ordered[i] = int32(k)
	}
	return ordered
}
