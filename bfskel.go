// Package bfskel is a Go implementation of "Connectivity-based and
// Boundary-Free Skeleton Extraction in Sensor Networks" (Liu, Jiang, Wang,
// Liu, Yang, Liu, Li — ICDCS 2012).
//
// The library simulates large sensor networks deployed in irregular fields
// under several radio models and extracts the network skeleton (medial
// axis) from pure local connectivity — no boundary information, no node
// positions. Network boundaries and a segmentation of the network are
// produced as by-products, exactly as in the paper.
//
// The typical flow builds a network once and runs the staged extraction
// engine over it; the engine pools its scratch state, so hold on to it when
// extracting more than once (parameter sweeps, repeated runs):
//
//	shape := bfskel.MustShape("window")
//	net, err := bfskel.BuildNetwork(bfskel.NetworkSpec{
//	    Shape:     shape,
//	    N:         2592,
//	    TargetDeg: 6,
//	    Seed:      1,
//	})
//	x := net.ExtractorObs(bfskel.ObsScope{})
//	res, err := x.Extract(bfskel.DefaultParams())
//	fmt.Println(res.Skeleton.NumNodes(), res.Skeleton.CycleRank())
//	fmt.Println(res.Stats) // per-phase wall time and pipeline counters
//
// One-shot callers can keep using the equivalent net.Extract(params);
// batches over many networks or parameter sets go through ExtractBatch,
// which amortizes pooled engines across all runs. An ObsScope with a
// tracer or metrics registry attaches observability to either entry point.
//
// Everything underneath lives in internal packages; this package is the
// supported API surface.
package bfskel

import (
	"errors"
	"fmt"
	"math"

	"bfskel/internal/core"
	"bfskel/internal/deploy"
	"bfskel/internal/geom"
	"bfskel/internal/graph"
	"bfskel/internal/radio"
	"bfskel/internal/shapes"
	"bfskel/internal/skeleton"
)

// Re-exported result and configuration types. The aliases keep one set of
// types across the facade and the internal pipeline.
type (
	// Params configures the extraction pipeline (paper defaults: K=L=4,
	// Alpha=1).
	Params = core.Params
	// Result carries every artifact of an extraction run.
	Result = core.Result
	// Extractor is the staged extraction engine: it pools scratch state
	// (BFS buffers, Walkers, per-node arrays) across runs and instruments
	// every phase. Create one per goroutine via Network.ExtractorObs.
	Extractor = core.Extractor
	// Stats instruments one extraction run: per-phase wall time, BFS and
	// flood counts, guard adjustments, and outcome counters.
	Stats = core.Stats
	// PhaseStats is one named stage's timing inside Stats.
	PhaseStats = core.PhaseStats
	// Skeleton is the node-level skeleton graph.
	Skeleton = core.Skeleton
	// SiteEdge is a coarse-skeleton connection between two sites.
	SiteEdge = core.SiteEdge
	// Loop is an identified skeleton loop with its genuine/fake label.
	Loop = core.Loop
	// Shape is a named deployment field.
	Shape = shapes.Shape
	// Point is a planar location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Polygon is a region with holes.
	Polygon = geom.Polygon
	// Graph is the connectivity graph.
	Graph = graph.Graph
	// RadioModel decides link existence from distance.
	RadioModel = radio.Model
)

// Re-exported radio models.
type (
	// UDG is the unit-disk graph model.
	UDG = radio.UDG
	// QUDG is the quasi unit-disk graph model.
	QUDG = radio.QUDG
	// LogNormal is the log-normal shadowing model (paper Eq. 2).
	LogNormal = radio.LogNormal
)

// DefaultParams returns the paper's parameters (K = L = 4, Alpha = 1).
func DefaultParams() Params { return core.DefaultParams() }

// ShapeByName looks up one of the paper's deployment fields; see ShapeNames.
func ShapeByName(name string) (Shape, error) { return shapes.ByName(name) }

// MustShape is ShapeByName that panics on unknown names.
func MustShape(name string) Shape { return shapes.MustByName(name) }

// ShapeNames lists the available deployment fields.
func ShapeNames() []string { return shapes.Names() }

// Layout selects the node-placement strategy.
type Layout int

// Available layouts.
const (
	// LayoutUniform places nodes uniformly at random (the paper's stated
	// model). Under UDG with average degree below ~7, uniform deployments
	// fragment inside narrow corridors, so the largest component may not
	// cover the whole field.
	LayoutUniform Layout = iota
	// LayoutGrid places nodes on a jittered grid (common practice in the
	// MAP/CASE line of work and visually indistinguishable from the
	// paper's figures); it keeps low-degree networks connected across
	// narrow corridors.
	LayoutGrid
)

// NetworkSpec describes a simulated sensor network to build.
type NetworkSpec struct {
	// Shape is the deployment field.
	Shape Shape
	// N is the number of deployed nodes.
	N int
	// Layout selects uniform-random (default) or jittered-grid placement.
	Layout Layout
	// Seed makes deployment and probabilistic links reproducible.
	Seed int64
	// Radio is the link model. If nil, a UDG whose range is derived from
	// TargetDeg is used.
	Radio RadioModel
	// TargetDeg is the desired average node degree; used only when Radio
	// is nil. It sets R = sqrt(TargetDeg*Area/(pi*N)).
	TargetDeg float64
	// Accept optionally skews the deployment: candidate positions are
	// kept with probability Accept(p) (see deploy.VerticalGradient and
	// deploy.HalfPlane for the paper's Fig. 8 settings).
	Accept func(Point) float64
	// KeepWholeGraph disables the default restriction to the largest
	// connected component. Sparse random deployments routinely leave a few
	// stragglers; the paper's networks are "overall connected".
	KeepWholeGraph bool
}

// Network is a realised sensor network: positions plus connectivity.
type Network struct {
	// Spec echoes the specification.
	Spec NetworkSpec
	// Points holds node positions (index = node ID).
	Points []Point
	// Graph is the connectivity graph over Points.
	Graph *Graph
	// Radio is the effective link model used.
	Radio RadioModel
}

// ErrNoShape is returned when a NetworkSpec lacks a deployment field.
var ErrNoShape = errors.New("bfskel: NetworkSpec.Shape is required")

// RadioRangeForDegree returns the UDG range that yields the target average
// degree for n nodes uniform in a region of the given area, ignoring border
// effects: R = sqrt(deg*area/(pi*n)).
func RadioRangeForDegree(area float64, n int, deg float64) float64 {
	if n <= 0 || area <= 0 || deg <= 0 {
		return 0
	}
	return math.Sqrt(deg * area / (math.Pi * float64(n)))
}

// BuildNetwork deploys nodes and realises the connectivity graph. Unless
// KeepWholeGraph is set, the network is restricted to its largest connected
// component (node IDs are re-assigned densely).
func BuildNetwork(spec NetworkSpec) (*Network, error) {
	if spec.Shape.Poly == nil {
		return nil, ErrNoShape
	}
	if spec.N <= 0 {
		return nil, fmt.Errorf("bfskel: N must be positive, got %d", spec.N)
	}
	var pts []geom.Point
	switch spec.Layout {
	case LayoutGrid:
		spacing := math.Sqrt(spec.Shape.Poly.Area() / float64(spec.N))
		pts = deploy.PerturbedGrid(spec.Shape.Poly, spacing, 0.45*spacing, spec.Seed)
		if spec.Accept != nil {
			pts = deploy.Thin(pts, spec.Seed+1, spec.Accept)
		}
		if len(pts) == 0 {
			return nil, deploy.ErrNoCapacity
		}
	default:
		var err error
		pts, err = deploy.Weighted(spec.Shape.Poly, spec.N, spec.Seed, spec.Accept)
		if err != nil {
			return nil, fmt.Errorf("deploy %q: %w", spec.Shape.Name, err)
		}
	}
	deg := spec.TargetDeg
	model := spec.Radio
	if model == nil {
		if deg <= 0 {
			deg = 8
		}
		model = radio.UDG{R: RadioRangeForDegree(spec.Shape.Poly.Area(), spec.N, deg)}
	}
	g, model := graph.Calibrate(pts, model, deg, spec.Seed)
	net := &Network{Spec: spec, Points: pts, Graph: g, Radio: model}
	if !spec.KeepWholeGraph {
		net = net.largestComponent()
	}
	return net, nil
}

// largestComponent returns the network induced by the largest connected
// component, with dense re-numbered node IDs.
func (n *Network) largestComponent() *Network {
	keep := n.Graph.LargestComponent()
	if len(keep) == n.Graph.N() {
		return n
	}
	sub, orig := n.Graph.Subgraph(keep)
	pts := make([]Point, len(orig))
	for i, v := range orig {
		pts[i] = n.Points[v]
	}
	return &Network{Spec: n.Spec, Points: pts, Graph: sub, Radio: n.Radio}
}

// N returns the number of nodes.
func (n *Network) N() int { return n.Graph.N() }

// AvgDegree returns the realised average node degree.
func (n *Network) AvgDegree() float64 { return n.Graph.AvgDegree() }

// Extract runs the boundary-free skeleton extraction pipeline. It is the
// one-shot form of the staged engine — equivalent to
// n.ExtractorObs(ObsScope{}).Extract(p) — and pays the engine's
// cold-start allocations every call; repeated extractions should reuse one
// Extractor.
func (n *Network) Extract(p Params) (*Result, error) {
	return core.Extract(n.Graph, p)
}

// BatchItem is one extraction of a batch: a network, its parameters, and
// optionally the registered skeleton backend to run (empty means
// "bfskel", the paper's pipeline). Zero-value Params mean the paper
// defaults (DefaultParams).
type BatchItem struct {
	Network *Network
	Params  Params
	Backend string
}

// ExtractBatch runs every item through the backend it names, sequentially
// and fail-fast, with the scope's tracer and metrics attached (each item
// emits its own "extract" span tree). "bfskel" items reuse pooled staged
// engines — rebinding on a network change keeps only the buffer capacity,
// so group items by network — and return results bit-identical to a direct
// engine run. For items on other backends the Result carries only the
// fields the backend produces (Params, Skeleton, CellOf, Boundary, Stats).
func ExtractBatch(items []BatchItem, sc ObsScope) ([]*Result, error) {
	jobs := make([]skeleton.BatchJob, len(items))
	for i, it := range items {
		jobs[i] = skeleton.BatchJob{
			G:       it.Network.Graph,
			Backend: it.Backend,
			Params:  skeleton.Params{Core: it.Params, Tracer: sc.Tracer, Metrics: sc.Metrics},
		}
	}
	sres, err := skeleton.ExtractBatch(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(sres))
	for i, r := range sres {
		if r.Core != nil {
			out[i] = r.Core
			continue
		}
		out[i] = &core.Result{
			Params:   jobs[i].Params.EffectiveCore(),
			Skeleton: r.Skeleton,
			CellOf:   r.CellOf,
			Boundary: r.Boundary,
			Stats:    r.Stats,
		}
	}
	return out, nil
}
