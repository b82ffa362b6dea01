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
type backend struct {
	// Opts configures the backend; the zero value uses the defaults, with
	// Radius taken from skeleton.Params when unset.
	Opts Options
}

// Name implements skeleton.Backend.
func (backend) Name() string { return "localsep" }

// Capabilities implements skeleton.Backend: boundary-free, but the shell
// test gives no segmentation and no homotopy guarantee.
func (backend) Capabilities() skeleton.Capabilities {
	return skeleton.Capabilities{}
}

// Extract implements skeleton.Backend. The ball radius follows the
// pipeline's K, so the scorecard compares backends under one knob set.
func (bk backend) Extract(g *graph.Graph, p skeleton.Params) (*skeleton.Result, *skeleton.Stats, error) {
	run := skeleton.NewRun(p, bk.Name(), g)
	opts := bk.Opts
	if opts.Radius == 0 {
		opts.Radius = p.EffectiveCore().K
	}
	res := extractStaged(g, opts, run.Hook())
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
