package bfskel

import (
	"bfskel/internal/boundary"
	"bfskel/internal/casex"
	"bfskel/internal/core"
	"bfskel/internal/geom"
	"bfskel/internal/mapax"
	"bfskel/internal/metrics"
	"bfskel/internal/protocol"
	"bfskel/internal/route"
	"bfskel/internal/segment"
)

// Re-exported analysis types.
type (
	// SkeletonReport scores an extracted skeleton against ground truth.
	SkeletonReport = metrics.SkeletonReport
	// SegmentationReport scores the Voronoi-cell by-product.
	SegmentationReport = metrics.SegmentationReport
	// MedialPoint is a ground-truth medial axis sample.
	MedialPoint = geom.MedialPoint
	// BoundaryResult is a detected boundary (nodes + cycles).
	BoundaryResult = boundary.Result
	// MAPResult is the MAP baseline's output.
	MAPResult = mapax.Result
	// CASEResult is the CASE baseline's output.
	CASEResult = casex.Result
	// DistributedResult carries the distributed protocol run's outputs and
	// message/round statistics.
	DistributedResult = protocol.Result
	// Router computes node paths (see NewSkeletonRouter, NewShortestPathRouter).
	Router = route.Router
	// LoadReport summarises a routing workload.
	LoadReport = route.LoadReport
	// Segmentation is a shape-segmentation result (labels + sinks).
	Segmentation = segment.Result
)

// GroundTruthMedialAxis approximates the continuous medial axis of the
// shape for use as evaluation ground truth.
func GroundTruthMedialAxis(shape Shape) []MedialPoint {
	return geom.MedialAxis(shape.Poly, geom.MedialAxisOptions{})
}

// Evaluate scores an extraction result against the network's shape.
// coverageRadius defaults to 3 radio ranges when zero.
func Evaluate(net *Network, res *Result, medial []MedialPoint, coverageRadius float64) SkeletonReport {
	if coverageRadius <= 0 {
		coverageRadius = 3 * net.Radio.MaxRange()
	}
	return metrics.EvaluateSkeleton(net.Spec.Shape.Poly, net.Points, res.Skeleton, medial, coverageRadius)
}

// EvaluateSegmentation scores the Voronoi-cell by-product.
func EvaluateSegmentation(res *Result) SegmentationReport {
	return metrics.EvaluateSegmentation(res.CellOf)
}

// SkeletonStability measures the symmetric mean distance between two
// skeletons of the same field (paper Figs. 5-7 stability claims).
func SkeletonStability(a *Network, ra *Result, b *Network, rb *Result) float64 {
	return metrics.Stability(a.Points, ra.Skeleton, b.Points, rb.Skeleton)
}

// BoundaryPrecisionRecall scores boundary nodes against the geometric truth
// band (band defaults to 1.5 radio ranges when zero).
func BoundaryPrecisionRecall(net *Network, nodes []int32, band float64) (precision, recall float64) {
	if band <= 0 {
		band = 1.5 * net.Radio.MaxRange()
	}
	return metrics.BoundaryPR(net.Spec.Shape.Poly, net.Points, nodes, band)
}

// DetectBoundary runs the neighborhood-size boundary detector (the
// substrate MAP and CASE assume as given input).
func DetectBoundary(net *Network) *BoundaryResult {
	return boundary.Detect(net.Graph, boundary.Options{})
}

// RunProtocolPhases runs phases 1-2 as true message-passing node programs
// on the simulated network and reports transmissions and rounds; to match a
// centralized run, pass its effective radii (Result.EffectiveK /
// Result.EffectiveScope).
func RunProtocolPhases(net *Network, k, l, scope int, alpha int32) (*DistributedResult, error) {
	return protocol.Run(net.Graph, k, l, scope, alpha)
}

// ExtractDistributed performs the complete extraction with phases 1-2
// executed as distributed node programs (counting every transmission and
// round) and phases 3-4 computed from their outputs. Unlike Extract, no
// saturation guard applies: the protocols run exactly at the configured
// radii, as real sensor firmware would.
func ExtractDistributed(net *Network, p Params) (*Result, *DistributedResult, error) {
	dres, err := protocol.Run(net.Graph, p.K, p.L, p.Scope(), p.Alpha)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.CompleteFromVoronoi(net.Graph, p, dres.KHop, dres.Index, dres.Sites, dres.Records)
	if err != nil {
		return nil, dres, err
	}
	return res, dres, nil
}

// NewSkeletonRouter builds the skeleton-aided naming/routing scheme.
func NewSkeletonRouter(net *Network, skel *Skeleton) (Router, error) {
	return route.NewSkeleton(net.Graph, skel)
}

// NewShortestPathRouter builds the shortest-path baseline router.
func NewShortestPathRouter(net *Network) Router {
	return route.NewShortestPath(net.Graph)
}

// MeasureLoad routes random pairs and reports stretch and per-node load.
func MeasureLoad(net *Network, r Router, pairs int, seed int64, isBoundary []bool) (LoadReport, error) {
	return route.MeasureLoad(net.Graph, r, pairs, seed, isBoundary)
}

// SegmentByCells runs the skeleton-based shape segmentation: Voronoi cells
// whose sites lie within mergeRadius hops along the skeleton merge into one
// segment (the application sketched in the paper's introduction).
func SegmentByCells(res *Result, mergeRadius int) *Segmentation {
	return segment.MergeCells(res, mergeRadius)
}

// SegmentByFlow runs the distance-transform segmentation (Zhu et al.):
// nodes flow uphill in boundary distance to sinks; sinks within mergeRadius
// hops merge. boundaryNodes is typically Result.Boundary (the by-product).
func SegmentByFlow(net *Network, boundaryNodes []int32, mergeRadius int) *Segmentation {
	return segment.FlowToSinks(net.Graph, boundaryNodes, mergeRadius)
}

// PruneLeafBranches is re-exported for post-processing custom skeletons.
func PruneLeafBranches(skel *Skeleton, minLen int) {
	core.PruneLeafBranches(skel, minLen)
}
