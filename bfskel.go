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
//	x := net.Extractor()
//	res, err := x.Extract(bfskel.DefaultParams())
//	fmt.Println(res.Skeleton.NumNodes(), res.Skeleton.CycleRank())
//	fmt.Println(res.Stats) // per-phase wall time and pipeline counters
//
// One-shot callers can keep using the equivalent net.Extract(params);
// batches over many networks or parameter sets go through ExtractBatch,
// which amortizes one engine across all runs.
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
	// every phase. Create one per goroutine via Network.Extractor.
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

// newGraph constructs an empty connectivity graph (used by LoadNetwork).
func newGraph(n int) *Graph { return graph.New(n) }

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
	var g *graph.Graph
	if r, ok := radio.BaseRange(model); ok && deg > 0 {
		// The analytic range sqrt(deg*A/(pi*n)) undershoots in narrow
		// corridors (border effects), so calibrate the range against the
		// realised average degree of this very deployment. This applies to
		// any model with a scalable base range (UDG, QUDG, log-normal).
		for iter := 0; iter < 4; iter++ {
			g = graph.Build(pts, model, spec.Seed)
			actual := g.AvgDegree()
			if actual <= 0 {
				r *= 1.5
			} else {
				if math.Abs(actual-deg)/deg < 0.01 {
					break
				}
				r *= math.Sqrt(deg / actual)
			}
			if scaled, ok := radio.WithRange(model, r); ok {
				model = scaled
			}
		}
	}
	g = graph.Build(pts, model, spec.Seed)
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
// n.Extractor().Extract(p) — and pays the engine's cold-start allocations
// every call; repeated extractions should reuse one Extractor.
func (n *Network) Extract(p Params) (*Result, error) {
	return core.Extract(n.Graph, p)
}

// Extractor returns a staged extraction engine bound to the network's
// graph. The engine reuses its scratch pools across Extract calls (every
// returned Result stays independent of the engine), but is not safe for
// concurrent use — create one per goroutine.
func (n *Network) Extractor() *Extractor {
	return core.NewExtractor(n.Graph)
}

// BatchItem is one extraction of a batch: a network plus its parameters.
// Backend optionally names a registered skeleton backend for the
// observability batch path (ExtractBatchObs); empty means "bfskel".
// ExtractBatch itself always runs the core pipeline.
type BatchItem struct {
	Network *Network
	Params  Params
	Backend string
}

// ExtractBatch runs every item through a single pooled extraction engine,
// amortizing scratch allocations across many networks and parameter sets
// (the experiment harness's sweeps run through this). Consecutive items on
// the same network reuse the full pool, so group items by network. It
// fails fast on the first erroring item.
func ExtractBatch(items []BatchItem) ([]*Result, error) {
	jobs := make([]core.BatchJob, len(items))
	for i, it := range items {
		jobs[i] = core.BatchJob{G: it.Network.Graph, P: it.Params}
	}
	return core.ExtractBatch(jobs)
}
