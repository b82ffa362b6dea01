package casex

import (
	"bfskel/internal/boundary"
	"bfskel/internal/graph"
	"bfskel/internal/obs"
	"bfskel/internal/skeleton"
)

func init() { skeleton.Register(backend{}) }

// backend exposes CASE behind the registry seam, with the boundary
// substrate resolved through the pluggable provider in skeleton.Params and
// the corner, tie and prune parameters fixed by the package constants.
type backend struct{}

// Name implements skeleton.Backend.
func (backend) Name() string { return "case" }

// Capabilities implements skeleton.Backend: CASE consumes a boundary
// substrate; its corner/branch construction gives no homotopy guarantee.
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
		obs.Int("branches", res.NumBranches),
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
