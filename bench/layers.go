package bench

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"bfskel"
	"bfskel/internal/deploy"
	"bfskel/internal/geom"
	"bfskel/internal/graph"
)

// layers re-executes, standalone and once per field, the build steps and
// flood kernels beneath the timed operations, and records each one's time
// summed over the fields. Traced runs only: the numbers attribute
// setup_s and extract_ms_p50 to layers, they are not end-to-end figures.
func (r *recorder) layers(fields []*field, p bfskel.Params) {
	r.beginGroup()
	ok := true
	for _, f := range fields {
		r.calib.tick()
		for _, err := range []error{r.buildLayers(f), r.kernelLayers(f, p)} {
			r.count(err)
			ok = ok && err == nil
		}
	}
	r.endGroup(ok)
	r.calib.tick()
}

// buildLayers replays bfskel.BuildNetwork's steps for a grid-layout field:
// point deployment, one graph.Build with the final calibrated radio, the
// largest-component restriction, and the CSR freeze of a thawed copy.
func (r *recorder) buildLayers(f *field) error {
	poly := f.spec.Shape.Poly
	spacing := math.Sqrt(poly.Area() / float64(f.spec.N))
	var pts []geom.Point
	ms, _ := r.call("deploy.PerturbedGrid", func() error {
		pts = deploy.PerturbedGrid(poly, spacing, 0.45*spacing, f.spec.Seed)
		return nil
	})
	r.sample("deploy.points_ms", "ms", ms)
	var g *graph.Graph
	ms, _ = r.call("graph.Build", func() error {
		g = graph.Build(pts, f.net.Radio, f.spec.Seed)
		return nil
	})
	r.sample("graph.build_ms", "ms", ms)
	ms, _ = r.call("graph.LargestComponent", func() error {
		if keep := g.LargestComponent(); len(keep) < g.N() {
			g, _ = g.Subgraph(keep)
		}
		return nil
	})
	r.sample("graph.component_ms", "ms", ms)
	if g.N() != f.net.N() || g.NumEdges() != f.edges {
		return fmt.Errorf("%s: rebuilt graph has %d nodes and %d edges, the network %d and %d",
			f.name, g.N(), g.NumEdges(), f.net.N(), f.edges)
	}
	thawed := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v {
				thawed.AddEdge(v, int(w))
			}
		}
	}
	ms, _ = r.call("graph.Freeze", func() error {
		thawed.Freeze()
		return nil
	})
	r.sample("graph.freeze_ms", "ms", ms)
	return nil
}

// kernelLayers runs each all-sources flood kernel once over the field's
// current graph at the radius the extraction floods to, max(K, scope, L):
// ball sizes under the batched and the walker kernel, the weighted
// centrality sums, and the visit-log pair (logged ball sizing, then the
// replayed sums). The pipeline gates the visit log at 2^17 nodes; here it
// runs at every size so its cost and memory show where it is off. Each pair
// must agree exactly.
func (r *recorder) kernelLayers(f *field, p bfskel.Params) error {
	g, res := f.net.Graph, f.ref
	radius := max(res.EffectiveK, res.EffectiveScope, p.L)
	n := g.N()
	batched, walker := ballMatrix(n, radius), ballMatrix(n, radius)
	ms, _ := r.call("graph.BallSizesIntoKernel.batched", func() error {
		g.BallSizesIntoKernel(graph.KernelBatched, radius, batched, nil, nil)
		return nil
	})
	r.sample("graph.balls_batched_ms", "ms", ms)
	ms, _ = r.call("graph.BallSizesIntoKernel.walker", func() error {
		g.BallSizesIntoKernel(graph.KernelWalker, radius, walker, nil, nil)
		return nil
	})
	r.sample("graph.balls_walker_ms", "ms", ms)
	for v := range batched {
		if !slices.Equal(batched[v], walker[v]) {
			return fmt.Errorf("%s: node %d ball sizes: batched %v, walker %v", f.name, v, batched[v], walker[v])
		}
	}

	khop := make([]int, n)
	for v := range khop {
		khop[v] = batched[v][res.EffectiveK-1]
	}
	swept, replayed := make([]int, n), make([]int, n)
	ms, _ = r.call("graph.BallWeightedSumsInto", func() error {
		g.BallWeightedSumsInto(graph.KernelBatched, p.L, khop, swept, nil, nil)
		return nil
	})
	r.sample("graph.weighted_sums_ms", "ms", ms)
	var lg graph.VisitLog
	ms, _ = r.call("graph.BallSizesIntoKernelLogged", func() error {
		g.BallSizesIntoKernelLogged(graph.KernelBatched, radius, p.L, walker, &lg, nil, nil)
		return nil
	})
	r.sample("graph.balls_logged_ms", "ms", ms)
	ms, _ = r.call("graph.VisitLog.WeightedSumsInto", func() error {
		lg.WeightedSumsInto(g, khop, replayed)
		return nil
	})
	r.sample("graph.replay_sums_ms", "ms", ms)
	r.sample("graph.visit_log_mb", "MB", float64(lg.Events())*float64(unsafe.Sizeof(graph.VisitEvent{}))/(1<<20))
	if !slices.Equal(swept, replayed) {
		return fmt.Errorf("%s: replayed centrality sums differ from a fresh sweep", f.name)
	}
	return nil
}

// ballMatrix allocates n cumulative ball-size rows of the given width.
func ballMatrix(n, width int) [][]int {
	flat := make([]int, n*width)
	rows := make([][]int, n)
	for v := range rows {
		rows[v] = flat[v*width : (v+1)*width : (v+1)*width]
	}
	return rows
}

// engines runs the protocol once per field on each simnet round engine,
// forced, and records the summed times; both must match the centralized
// result.
func (r *recorder) engines(fields []*field) {
	engines := []struct {
		name string
		eng  bfskel.SimEngine
	}{{"serial", bfskel.SimEngineSerial}, {"parallel", bfskel.SimEngineParallel}}
	r.beginGroup()
	ok := true
	for _, f := range fields {
		r.calib.tick()
		for _, e := range engines {
			var d *bfskel.DistributedResult
			ms, err := r.call("bfskel.RunProtocolPhasesObs."+e.name, func() (err error) {
				d, err = runProtocol(f, bfskel.ProtocolOptions{Engine: e.eng})
				return err
			})
			if err == nil {
				err = matchProtocol(d, f.ref)
			}
			r.count(err)
			ok = ok && err == nil
			r.sample("simnet."+e.name+"_ms", "ms", ms)
		}
	}
	r.endGroup(ok)
	r.calib.tick()
}
