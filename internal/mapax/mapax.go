// Package mapax implements the MAP baseline (Bruck, Gao, Jiang: "MAP:
// Medial axis based geometric routing in sensor networks") to the fidelity
// the paper's comparison requires: given identified boundary nodes, MAP
// computes the hop distance transform, declares nodes equidistant to two
// well-separated boundary nodes as medial nodes, and connects them into a
// medial axis. Its defining weakness — sensitivity to boundary noise, where
// a small bump grows a long spurious branch — emerges naturally from this
// construction and is what experiment E10 measures.
package mapax

import (
	"bfskel/internal/boundary"
	"bfskel/internal/core"
	"bfskel/internal/graph"
)

// The baseline's parameters are fixed: no caller has needed other values.
const (
	// tieSlack is the distance slack for recording several nearest
	// boundary nodes.
	tieSlack = 1
	// separationFactor scales the stability test: two nearest boundary
	// nodes on the same cycle count as distinct only if their separation
	// along the cycle exceeds separationFactor x the node's boundary
	// distance.
	separationFactor = 2
	// minSeparation is the absolute minimum separation in hops; below it,
	// tie-set spread near the boundary band passes the test spuriously.
	minSeparation = 6
)

// Result is the extracted medial axis.
type Result struct {
	// DistToBoundary is the hop distance transform.
	DistToBoundary []int32
	// MedialNodes are the nodes that passed the medial test, sorted.
	MedialNodes []int32
	// Skeleton is the connected medial-axis structure.
	Skeleton *core.Skeleton
}

// Extract runs the MAP baseline on a graph with known boundary.
func Extract(g *graph.Graph, b *boundary.Result) *Result {
	return extractStaged(g, b, func(_ string, fn func()) { fn() })
}

// extractStaged is the MAP pipeline split into named stages, each run
// through the given hook — inline for the plain Extract entry point, or
// under a timed "stage.<name>" span when driven by the registry backend.
func extractStaged(g *graph.Graph, b *boundary.Result, stage func(name string, fn func())) *Result {
	res := &Result{Skeleton: core.NewSkeleton(g.N())}

	// Hop distance transform from the boundary, with tie records.
	var records [][]core.SiteDist
	stage("transform", func() {
		res.DistToBoundary, records = core.VoronoiRecords(g, b.Nodes, tieSlack)
	})

	// Medial test: nearest boundary nodes on different cycles or far apart.
	isMedial := make([]bool, g.N())
	stage("medial", func() {
		cycleOf := make(map[int32]int, len(b.Nodes))
		for ci, cycle := range b.Cycles {
			for _, v := range cycle {
				cycleOf[v] = ci
			}
		}
		sep := newSeparation(g)
		dmin := res.DistToBoundary
		for v := 0; v < g.N(); v++ {
			if b.IsBoundary[v] || dmin[v] == graph.Unreachable {
				continue
			}
			if medialAt(records[v], dmin[v], cycleOf, sep) {
				isMedial[v] = true
				res.MedialNodes = append(res.MedialNodes, int32(v))
			}
		}
	})

	// Connect medial nodes into MAP's medial-axis representation.
	stage("connect", func() {
		core.ConnectWithin2(g, isMedial, res.Skeleton)
	})
	return res
}

// medialAt applies MAP's medial-node test: two recorded nearest boundary
// nodes on different boundary cycles, or far apart in hop distance along
// the network (the stability condition that suppresses boundary noise — up
// to the separation threshold, which is exactly where MAP's noise
// sensitivity lives).
func medialAt(recs []core.SiteDist, dist int32, cycleOf map[int32]int, sep *separation) bool {
	minSep := max(separationFactor*dist, minSeparation)
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			ci, oki := cycleOf[recs[i].Site]
			cj, okj := cycleOf[recs[j].Site]
			if !oki || !okj {
				continue
			}
			if ci != cj {
				return true
			}
			if sep.atLeast(recs[i].Site, recs[j].Site, minSep) {
				return true
			}
		}
	}
	return false
}

// separation memoizes capped pairwise hop distances between boundary nodes.
type separation struct {
	w    *graph.Walker
	dist map[[2]int32]int32 // exact distance, or cap+1 meaning "> cap"
	cap  map[[2]int32]int32
}

func newSeparation(g *graph.Graph) *separation {
	return &separation{
		w:    graph.NewWalker(g),
		dist: make(map[[2]int32]int32),
		cap:  make(map[[2]int32]int32),
	}
}

// atLeast reports whether the hop distance between a and b is >= want.
func (s *separation) atLeast(a, b, want int32) bool {
	if a == b {
		return want <= 0
	}
	key := [2]int32{a, b}
	if a > b {
		key = [2]int32{b, a}
	}
	if d, ok := s.dist[key]; ok {
		if d <= s.cap[key] {
			return d >= want // exact
		}
		if s.cap[key] >= want {
			return true // "> cap >= want"
		}
		// The cached bound is too weak; recompute below.
	}
	d := s.w.HopDist(int(key[0]), int(key[1]), int(want))
	s.dist[key] = d
	s.cap[key] = want
	return d >= want
}
