package core

import (
	"errors"
	"fmt"
	"sort"

	"bfskel/internal/graph"
)

// ErrEmptyGraph is returned when extraction is attempted on a graph with no
// nodes.
var ErrEmptyGraph = errors.New("core: empty graph")

// ErrNoSites is returned when no node identifies itself as a critical
// skeleton node; this indicates a degenerate network (e.g. a clique, where
// every node sees every other).
var ErrNoSites = errors.New("core: no critical skeleton nodes identified")

// Extract runs the full four-phase pipeline of Sec. III on the connectivity
// graph and returns every intermediate and final artifact. The graph should
// be connected; on a disconnected graph each component containing a site is
// processed and the rest is left unassigned.
//
// This is the one-shot compatibility form of the staged engine: it builds a
// throwaway Extractor per call. Callers running many extractions should
// hold one Extractor so the scratch pools amortize.
func Extract(g *graph.Graph, p Params) (*Result, error) {
	return NewExtractor(g).Extract(p)
}

// CompleteFromVoronoi runs phases 3-4 (coarse skeleton establishment and
// final clean-up) plus the by-products on top of externally computed
// phase 1-2 artifacts — typically the outputs of the distributed protocols
// in package protocol — turning them into a full extraction result. The
// attached Stats instruments only the stages that ran.
//
// khop and index must cover every node; sites must be the elected critical
// skeleton nodes; records the per-node Voronoi records with reverse-path
// parents.
func CompleteFromVoronoi(g *graph.Graph, p Params, khop []int, index []float64,
	sites []int32, records [][]SiteDist) (*Result, error) {

	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return nil, ErrEmptyGraph
	}
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	if len(khop) != g.N() || len(index) != g.N() || len(records) != g.N() {
		return nil, fmt.Errorf("core: artifact sizes (%d, %d, %d) do not match graph size %d",
			len(khop), len(index), len(records), g.N())
	}
	n := g.N()
	cellOf := make([]int32, n)
	distToSite := make([]int32, n)
	for v := 0; v < n; v++ {
		cellOf[v], distToSite[v] = nearestSite(records[v])
	}
	res := &Result{
		Params:         p,
		EffectiveK:     p.K,
		EffectiveScope: p.Scope(),
		KHopSize:       khop,
		Index:          index,
		Sites:          sites,
		CellOf:         cellOf,
		DistToSite:     distToSite,
		Records:        records,
	}
	rs := &runState{e: NewExtractor(g), g: g, p: p, res: res, stats: newStats()}
	rs.stats.Sites = len(sites)
	if err := rs.extract(stages[2:]); err != nil {
		return nil, err
	}
	return res, nil
}

// nearestSite derives a node's cell and distance from its Voronoi records:
// the nearest recorded site, the lowest site ID on ties (the dmin flood's
// tie-break). A node without records is unassigned: -1 and Unreachable.
func nearestSite(recs []SiteDist) (site, d int32) {
	site, d = -1, graph.Unreachable
	for _, r := range recs {
		if d == graph.Unreachable || r.D < d || (r.D == d && r.Site < site) {
			site, d = r.Site, r.D
		}
	}
	return site, d
}

// boundaryByProduct classifies boundary nodes from the K-hop neighborhood
// sizes: nodes close to a boundary see markedly fewer K-hop neighbors than
// interior nodes (the observation of Fekete et al. the paper builds on).
// A node is a boundary node when its K-hop size is below boundaryFraction
// of median, the component median medianKHop computes.
func (e *Extractor) boundaryByProduct(khop []int, median int) []int32 {
	const boundaryFraction = 0.85
	cut := boundaryFraction * float64(median)
	var out []int32
	for v, s := range khop {
		if float64(s) < cut && e.g.Degree(v) > 0 {
			out = append(out, int32(v))
		}
	}
	return out
}

// medianKHop returns the order statistic khop-sorted[len/2] — the exact
// value the historical sort-based median produced — via a counting pass
// when the value range is compact (ball sizes are bounded by the network
// size, so this is the common case) and a sort of the scratch buffer
// otherwise. The incremental update path recomputes the boundary stage per
// churn batch, so the O(n log n) sort would dominate its budget.
func medianKHop(khop []int, scratch *[]int) int {
	n := len(khop)
	maxV := 0
	for _, s := range khop {
		if s > maxV {
			maxV = s
		}
	}
	if maxV <= 4*n {
		counts := grow(*scratch, maxV+1)
		*scratch = counts
		for i := range counts {
			counts[i] = 0
		}
		for _, s := range khop {
			counts[s]++
		}
		// sorted[n/2] is the (n/2+1)-th smallest value.
		need := n/2 + 1
		seen := 0
		for v, c := range counts {
			seen += c
			if seen >= need {
				return v
			}
		}
	}
	sorted := grow(*scratch, n)
	*scratch = sorted
	copy(sorted, khop)
	sort.Ints(sorted)
	return sorted[n/2]
}
