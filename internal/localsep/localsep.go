// Package localsep implements skeletonization via local separators
// (Bærentzen & Rotenberg, "Skeletonization via local separators") mapped
// onto the hop graph of a sensor network. The original algorithm grows a
// ball around each vertex and tests whether a small set around the vertex
// separates the ball; here the ball is the R-hop neighborhood and the test
// asks whether the ball's shell (the nodes at exactly r hops, r <= R)
// splits into two or more components once the interior B_{r-1} is treated
// as the separator. Interior nodes of a wide region see a connected
// annulus; nodes across a corridor, between holes, or along any narrow
// feature see the shell cut into opposite arcs — exactly the medial
// structure. Like the paper's own pipeline (and unlike MAP/CASE), the
// construction is boundary-free: it consumes nothing but connectivity.
package localsep

import (
	"runtime"
	"sort"

	"bfskel/internal/core"
	"bfskel/internal/graph"
)

// The backend's parameters other than the ball radius are fixed: no caller
// has needed other values.
const (
	// fraction is the boundary-band prefilter: nodes whose |N_R| falls
	// below fraction x the field median are skipped — near the boundary
	// the shell cannot wrap, so the test only costs sweeps there.
	fraction = 0.7
	// minComp is the minimum shell-component size that counts toward the
	// separator test, suppressing single-node sampling artifacts.
	minComp = 2
	// pruneLen trims leaf skeleton branches shorter than this many hops.
	pruneLen = 3
)

// Result is the extracted skeleton with its intermediate artifacts.
type Result struct {
	// Radius echoes the effective ball radius R.
	Radius int
	// BallSize is |N_R| per node, computed by the ball-growth pass.
	BallSize []int
	// SeparatorNodes are the nodes whose shell split at some radius,
	// after thinning, sorted by ID.
	SeparatorNodes []int32
	// Skeleton is the connected, pruned structure.
	Skeleton *core.Skeleton
}

// Extract runs local-separator skeletonization on the hop graph with
// maximal ball radius R = radius (at least 2): the separator test runs at
// every shell radius 2..R and flags the node when any of them splits.
func Extract(g *graph.Graph, radius int) *Result {
	return extractStaged(g, radius, func(_ string, fn func()) { fn() })
}

// extractStaged is the pipeline split into named stages, each run through
// the given hook — inline for Extract, timed under the registry backend.
func extractStaged(g *graph.Graph, radius int, stage func(name string, fn func())) *Result {
	radius = max(radius, 2)
	n := g.N()
	res := &Result{Radius: radius}

	// Ball growth: cumulative |N_r| profiles for every node through the
	// bit-parallel MS-BFS kernel. The profile's top radius is the prefilter
	// statistic.
	var cut float64
	stage("balls", func() {
		rows := make([][]int, n)
		flat := make([]int, n*radius)
		for v := range rows {
			rows[v] = flat[v*radius : (v+1)*radius : (v+1)*radius]
		}
		g.BallSizesInto(radius, rows, nil, nil)
		res.BallSize = make([]int, n)
		for v := range rows {
			res.BallSize[v] = rows[v][radius-1]
		}
		cut = fraction * float64(median(res.BallSize))
	})

	// Separator test, chunk-parallel over nodes (per-node writes only).
	isSep := make([]bool, n)
	stage("separators", func() {
		graph.ParallelChunks(n, runtime.GOMAXPROCS(0), func(_, lo, hi int) {
			w := graph.NewWalker(g)
			s := newSepScratch(n)
			for v := lo; v < hi; v++ {
				if g.Degree(v) == 0 || float64(res.BallSize[v]) < cut {
					continue
				}
				isSep[v] = s.separates(g, w, v, radius)
			}
		})
	})

	// Ridge thinning: keep band nodes whose ball is maximal among their
	// separator neighbors — the hop-graph analogue of selecting minimal
	// separators, so the skeleton follows the corridor ridge instead of
	// filling the band (reads isSep, writes member — order-free).
	stage("thin", func() {
		member := make([]bool, n)
		for v := 0; v < n; v++ {
			if !isSep[v] {
				continue
			}
			keep := true
			for _, u := range g.Neighbors(v) {
				if isSep[u] && res.BallSize[u] > res.BallSize[v] {
					keep = false
					break
				}
			}
			member[v] = keep
		}
		isSep = member
		for v := 0; v < n; v++ {
			if isSep[v] {
				res.SeparatorNodes = append(res.SeparatorNodes, int32(v))
			}
		}
	})

	// Connect within two hops and prune stub branches.
	stage("connect", func() {
		res.Skeleton = core.NewSkeleton(n)
		core.ConnectWithin2(g, isSep, res.Skeleton)
		core.PruneLeafBranches(res.Skeleton, pruneLen)
	})
	return res
}

// median returns the middle element of a copy of xs (0 for empty input).
func median(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]int, len(xs))
	copy(sorted, xs)
	sort.Ints(sorted)
	return sorted[len(sorted)/2]
}

// sepScratch is one worker's reusable state for the shell-component test.
// Arrays are indexed by node and validated against epochs, so a sweep
// clears in O(visited) without touching the whole array.
type sepScratch struct {
	mark      []int32 // ball-sweep epoch the node was last reached in
	dist      []int32 // hop distance from the center (valid when mark matches)
	comp      []int32 // component epoch the shell node was last labelled in
	ball      []int32 // visited nodes of the current ball, in BFS order
	shl       []int32 // shell nodes of the current radius
	que       []int32 // labelling queue
	ballEpoch int32
	compEpoch int32
}

func newSepScratch(n int) *sepScratch {
	return &sepScratch{
		mark: make([]int32, n),
		dist: make([]int32, n),
		comp: make([]int32, n),
	}
}

// separates reports whether v's shell splits into >= 2 components of at
// least minComp nodes at any radius 2..radius. One truncated BFS collects
// the ball; each radius then labels its shell using only shell nodes and
// single bridges through distance r-1 nodes (the separator boundary),
// which tolerates sampling gaps without reconnecting across the corridor.
func (s *sepScratch) separates(g *graph.Graph, w *graph.Walker, v int, radius int) bool {
	s.ballEpoch++
	s.ball = s.ball[:0]
	s.mark[v] = s.ballEpoch
	s.dist[v] = 0
	w.Walk(v, radius, func(u, d int32) {
		s.mark[u] = s.ballEpoch
		s.dist[u] = d
		s.ball = append(s.ball, u)
	})
	for r := int32(2); r <= int32(radius); r++ {
		s.shl = s.shl[:0]
		for _, u := range s.ball {
			if s.dist[u] == r {
				s.shl = append(s.shl, u)
			}
		}
		if len(s.shl) < 2*minComp {
			continue
		}
		comps := 0
		s.compEpoch++
		for _, u := range s.shl {
			if s.comp[u] == s.compEpoch {
				continue
			}
			if s.labelFrom(g, u, r) >= minComp {
				comps++
				if comps >= 2 {
					return true
				}
			}
		}
	}
	return false
}

// labelFrom labels the shell component containing start (shell = ball nodes
// at distance r) and returns its size. Two shell nodes are connected when
// adjacent, or when they share a neighbor at distance r-1 or r inside the
// ball (a single bridge across a sampling gap).
func (s *sepScratch) labelFrom(g *graph.Graph, start int32, r int32) int {
	s.que = s.que[:0]
	s.que = append(s.que, start)
	s.comp[start] = s.compEpoch
	size := 1
	for head := 0; head < len(s.que); head++ {
		u := s.que[head]
		for _, w := range g.Neighbors(int(u)) {
			if s.mark[w] != s.ballEpoch {
				continue
			}
			switch s.dist[w] {
			case r:
				if s.comp[w] != s.compEpoch {
					s.comp[w] = s.compEpoch
					s.que = append(s.que, w)
					size++
				}
			case r - 1:
				// w sits on the separator boundary: bridge through it to
				// shell nodes one hop beyond, without counting w. Nodes
				// deeper inside — or beyond the shell — do not connect.
				for _, x := range g.Neighbors(int(w)) {
					if s.mark[x] == s.ballEpoch && s.dist[x] == r && s.comp[x] != s.compEpoch {
						s.comp[x] = s.compEpoch
						s.que = append(s.que, x)
						size++
					}
				}
			}
		}
	}
	return size
}
