package localsep

import (
	"bfskel/internal/graph"
	"bfskel/internal/obs"
	"bfskel/internal/skeleton"
)

func init() { skeleton.Register(backend{}) }

// backend exposes local-separator skeletonization behind the registry seam.
// Unlike MAP/CASE it declares no boundary dependency: the separator test is
// purely connectivity-based, making it the one alternative backend in the
// same boundary-free class as the paper's pipeline.
type backend struct{}

// Name implements skeleton.Backend.
func (backend) Name() string { return "localsep" }

// Capabilities implements skeleton.Backend: boundary-free, but the shell
// test gives no segmentation and no homotopy guarantee.
func (backend) Capabilities() skeleton.Capabilities {
	return skeleton.Capabilities{}
}

// Extract implements skeleton.Backend. The ball radius follows the
// pipeline's K, so the scorecard compares backends under one knob set; the
// other parameters are the package's fixed constants.
func (bk backend) Extract(g *graph.Graph, p skeleton.Params) (*skeleton.Result, *skeleton.Stats, error) {
	run := skeleton.NewRun(p, bk.Name(), g)
	res := extractStaged(g, p.EffectiveCore().K, run.Hook())
	stats := run.Finish(
		obs.Int("separators", len(res.SeparatorNodes)),
		obs.Int("skelNodes", res.Skeleton.NumNodes()))
	out := &skeleton.Result{
		Backend:  bk.Name(),
		Nodes:    res.Skeleton.Nodes(),
		Skeleton: res.Skeleton,
		Stats:    stats,
		Native:   res,
	}
	return out, stats, nil
}
