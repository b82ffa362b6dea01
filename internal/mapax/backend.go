package mapax

import (
	"bfskel/internal/boundary"
	"bfskel/internal/graph"
	"bfskel/internal/obs"
	"bfskel/internal/skeleton"
)

func init() { skeleton.Register(backend{}) }

// backend exposes MAP behind the registry seam. The boundary substrate MAP
// assumes as given input is resolved through the pluggable provider in
// skeleton.Params — by default the connectivity-based detector, but noise
// experiments and precomputed boundaries plug in the same way. The tie and
// separation parameters are fixed by the package constants.
type backend struct{}

// Name implements skeleton.Backend.
func (backend) Name() string { return "map" }

// Capabilities implements skeleton.Backend: MAP consumes a boundary
// substrate and produces neither segmentation nor homotopy guarantees.
func (backend) Capabilities() skeleton.Capabilities {
	return skeleton.Capabilities{NeedsBoundary: true}
}

// Extract implements skeleton.Backend.
func (bk backend) Extract(g *graph.Graph, p skeleton.Params) (*skeleton.Result, *skeleton.Stats, error) {
	run := skeleton.NewRun(p, bk.Name(), g)
	var b *boundary.Result
	if err := run.Stage("boundary", func() (err error) {
		b, err = p.ResolveBoundary(g)
		return err
	}); err != nil {
		run.Fail(err)
		return nil, nil, err
	}
	res := extractStaged(g, b, run.Hook())
	stats := run.Finish(
		obs.Int("medialNodes", len(res.MedialNodes)),
		obs.Int("skelNodes", res.Skeleton.NumNodes()))
	stats.BoundaryNodes = len(b.Nodes)
	out := &skeleton.Result{
		Backend:  bk.Name(),
		Nodes:    res.Skeleton.Nodes(),
		Skeleton: res.Skeleton,
		Boundary: b.Nodes,
		Stats:    stats,
		Native:   res,
	}
	return out, stats, nil
}
