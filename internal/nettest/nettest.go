// Package nettest builds deterministic test networks for the internal
// packages' tests, mirroring the facade's jittered-grid construction
// without importing the facade (which would create an import cycle for
// packages the facade depends on).
package nettest

import (
	"math"

	"bfskel/internal/deploy"
	"bfskel/internal/geom"
	"bfskel/internal/graph"
	"bfskel/internal/radio"
	"bfskel/internal/shapes"
)

// Network bundles a built test network.
type Network struct {
	Shape  shapes.Shape
	Points []geom.Point
	Graph  *graph.Graph
	Radio  radio.Model
}

// Grid builds a jittered-grid UDG network with a calibrated radio range,
// restricted to its largest connected component.
func Grid(shapeName string, n int, deg float64, seed int64) *Network {
	shape := shapes.MustByName(shapeName)
	spacing := math.Sqrt(shape.Poly.Area() / float64(n))
	pts := deploy.PerturbedGrid(shape.Poly, spacing, 0.45*spacing, seed)
	r := math.Sqrt(deg * shape.Poly.Area() / (math.Pi * float64(len(pts))))
	g, model := graph.Calibrate(pts, radio.UDG{R: r}, deg, seed)
	return largest(shape, pts, g, model)
}

// WithModel builds a jittered-grid network under an explicit radio model,
// restricted to its largest connected component.
func WithModel(shapeName string, n int, m radio.Model, seed int64) *Network {
	shape := shapes.MustByName(shapeName)
	spacing := math.Sqrt(shape.Poly.Area() / float64(n))
	pts := deploy.PerturbedGrid(shape.Poly, spacing, 0.45*spacing, seed)
	return largest(shape, pts, graph.Build(pts, m, seed), m)
}

// largest restricts a built network to its largest connected component.
func largest(shape shapes.Shape, pts []geom.Point, g *graph.Graph, m radio.Model) *Network {
	sub, orig := g.Subgraph(g.LargestComponent())
	kept := make([]geom.Point, len(orig))
	for i, v := range orig {
		kept[i] = pts[v]
	}
	return &Network{Shape: shape, Points: kept, Graph: sub, Radio: m}
}
