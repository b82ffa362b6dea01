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
		cycles = append(cycles, orderChain(g, comp, isBoundary))
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

// orderChain orders a boundary component along the curve: BFS distances
// from an extreme node give a 1D coordinate along the (locally path-like)
// boundary band.
func orderChain(g *graph.Graph, comp []int32, isBoundary []bool) []int32 {
	inComp := make(map[int32]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	// Double sweep to find an extreme, then order by distance from it.
	far := bandFarthest(g, comp[0], inComp)
	dist := bandDistances(g, far, inComp)
	ordered := make([]int32, len(comp))
	copy(ordered, comp)
	sort.Slice(ordered, func(i, j int) bool {
		di, dj := dist[ordered[i]], dist[ordered[j]]
		if di != dj {
			return di < dj
		}
		return ordered[i] < ordered[j]
	})
	return ordered
}

// bandFarthest returns the farthest component node from src under band BFS.
func bandFarthest(g *graph.Graph, src int32, inComp map[int32]bool) int32 {
	dist := bandDistances(g, src, inComp)
	far := src
	for v, d := range dist {
		if d > dist[far] || (d == dist[far] && v < far) {
			far = v
		}
	}
	return far
}

// bandDistances runs BFS over component nodes, bridging one non-member hop.
func bandDistances(g *graph.Graph, src int32, inComp map[int32]bool) map[int32]int32 {
	dist := map[int32]int32{src: 0}
	queue := []int32{src}
	visit := func(v, d int32, queueP *[]int32) {
		if _, ok := dist[v]; !ok {
			dist[v] = d
			*queueP = append(*queueP, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, w := range g.Neighbors(int(u)) {
			if inComp[w] {
				visit(w, du+1, &queue)
				continue
			}
			for _, x := range g.Neighbors(int(w)) {
				if inComp[x] {
					visit(x, du+2, &queue)
				}
			}
		}
	}
	return dist
}
