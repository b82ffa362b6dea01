// Package casex implements the CASE baseline (Jiang et al.: "CASE:
// Connectivity-based skeleton extraction in wireless sensor networks"):
// given identified boundary cycles, CASE segments each boundary into
// branches at corner points, declares nodes whose nearest boundary nodes
// fall on two or more different branches as skeleton nodes, and connects
// and prunes them. Corner detection tames boundary noise — the improvement
// over MAP the paper highlights — at the cost of still requiring known
// boundaries, which is exactly the dependency the paper's algorithm
// removes.
package casex

import (
	"bfskel/internal/boundary"
	"bfskel/internal/core"
	"bfskel/internal/graph"
)

// The baseline's parameters are fixed: no caller has needed other values.
const (
	// cornerWindow is the half-window (in along-cycle positions) of the
	// shortcut test.
	cornerWindow = 6
	// cornerRatio flags a corner when the graph shortcut between the two
	// window ends is below cornerRatio x the along-cycle arc.
	cornerRatio = 0.6
	// tieSlack is the distance slack for recording several nearest
	// boundary nodes.
	tieSlack = 1
	// pruneLen trims leaf skeleton branches shorter than this many hops.
	pruneLen = 3
)

// Result is the extracted skeleton.
type Result struct {
	// Corners are the detected corner points, per boundary cycle.
	Corners [][]int32
	// BranchOf labels each boundary node with its branch ID (-1 for
	// non-boundary nodes).
	BranchOf []int
	// NumBranches is the number of boundary branches.
	NumBranches int
	// SkeletonNodes are the nodes whose nearest boundary nodes span two or
	// more branches, sorted.
	SkeletonNodes []int32
	// Skeleton is the connected, pruned structure.
	Skeleton *core.Skeleton
}

// Extract runs the CASE baseline on a graph with known boundary.
func Extract(g *graph.Graph, b *boundary.Result) *Result {
	return extractStaged(g, b, func(_ string, fn func()) { fn() })
}

// extractStaged is the CASE pipeline split into named stages, each run
// through the given hook — inline for the plain Extract entry point, or
// under a timed "stage.<name>" span when driven by the registry backend.
func extractStaged(g *graph.Graph, b *boundary.Result, stage func(name string, fn func())) *Result {
	res := &Result{BranchOf: make([]int, g.N())}
	for i := range res.BranchOf {
		res.BranchOf[i] = -1
	}

	// Corner detection and branch labelling per cycle.
	stage("corners", func() {
		// One walker serves every cycle; it is made for the first cycle
		// long enough to need one (detectCorners skips shorter ones).
		var walker *graph.Walker
		branch := 0
		for _, cycle := range b.Cycles {
			if walker == nil && len(cycle) >= 4*cornerWindow {
				walker = graph.NewWalker(g)
			}
			corners := detectCorners(walker, cycle, cornerRatio)
			res.Corners = append(res.Corners, corners)
			branch = labelBranches(cycle, corners, res.BranchOf, branch)
		}
		res.NumBranches = branch
	})

	// Distance transform with branch-aware records; nodes whose nearest
	// boundary nodes span two or more branches become skeleton nodes.
	isSkel := make([]bool, g.N())
	stage("transform", func() {
		_, records := core.VoronoiRecords(g, b.Nodes, tieSlack)
		for v := 0; v < g.N(); v++ {
			if b.IsBoundary[v] {
				continue
			}
			seen := -1
			for _, r := range records[v] {
				br := res.BranchOf[r.Site]
				if br == -1 {
					continue
				}
				if seen == -1 {
					seen = br
					continue
				}
				if br != seen {
					isSkel[v] = true
					break
				}
			}
		}
		for v := 0; v < g.N(); v++ {
			if isSkel[v] {
				res.SkeletonNodes = append(res.SkeletonNodes, int32(v))
			}
		}
	})

	// Connect and prune into CASE's skeleton arcs.
	stage("connect", func() {
		res.Skeleton = core.NewSkeleton(g.N())
		core.ConnectWithin2(g, isSkel, res.Skeleton)
		core.PruneLeafBranches(res.Skeleton, pruneLen)
	})
	return res
}

// detectCorners flags cycle positions where the graph shortcut between the
// window ends is below threshold x the along-cycle arc — the boundary turns
// back on itself — with non-maximum suppression inside the window. Cycles
// shorter than four windows have no corners and leave the walker unused.
func detectCorners(walker *graph.Walker, cycle []int32, threshold float64) []int32 {
	l := len(cycle)
	w := cornerWindow
	if l < 4*w {
		return nil
	}
	ratio := make([]float64, l)
	for i := range cycle {
		a := cycle[(i-w+l)%l]
		b := cycle[(i+w)%l]
		arc := float64(2 * w)
		cut := walker.HopDist(int(a), int(b), 2*w+2)
		ratio[i] = float64(cut) / arc
	}
	var corners []int32
	for i := range cycle {
		if ratio[i] >= threshold {
			continue
		}
		// Non-maximum suppression: keep only the sharpest position in the
		// window.
		best := true
		for d := -w; d <= w; d++ {
			j := (i + d + l) % l
			if ratio[j] < ratio[i] || (ratio[j] == ratio[i] && j < i) {
				best = false
				break
			}
		}
		if best {
			corners = append(corners, cycle[i])
		}
	}
	return corners
}

// labelBranches splits the ordered cycle at its corners and assigns one
// branch ID per segment, returning the next free ID. A cycle without
// corners is one branch.
func labelBranches(cycle []int32, corners []int32, branchOf []int, next int) int {
	isCorner := make(map[int32]bool, len(corners))
	for _, c := range corners {
		isCorner[c] = true
	}
	if len(corners) == 0 {
		for _, v := range cycle {
			branchOf[v] = next
		}
		return next + 1
	}
	// Start labelling at the first corner so every segment is contiguous.
	start := 0
	for i, v := range cycle {
		if isCorner[v] {
			start = i
			break
		}
	}
	cur := next
	for i := 0; i < len(cycle); i++ {
		v := cycle[(start+i)%len(cycle)]
		if isCorner[v] && i > 0 {
			cur++
		}
		branchOf[v] = cur
	}
	return cur + 1
}
