// Command skelextract runs the boundary-free skeleton extraction pipeline
// on one scenario and reports statistics; with -svg it also writes the
// pipeline stages as SVG files (the panels of paper Figs. 1 and 3).
//
// Usage:
//
//	skelextract -shape window -n 2592 -deg 6 -seed 1 -svg out/
//	skelextract -shape twoholes -obs 127.0.0.1:0   # live /metrics /runs /trace /profile
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bfskel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "skelextract:", err)
		os.Exit(1)
	}
}

// discard is a trace sink that drops every record.
type discard struct{}

func (discard) Emit(bfskel.TraceRecord) {}

func run() error {
	var (
		shapeName = flag.String("shape", "window", "deployment field (see -list)")
		backendNm = flag.String("backend", "bfskel", "skeleton backend (bfskel, map, case, localsep)")
		n         = flag.Int("n", 2592, "number of deployed nodes")
		deg       = flag.Float64("deg", 6, "target average degree (UDG)")
		seed      = flag.Int64("seed", 1, "deployment/link seed")
		k         = flag.Int("k", 4, "neighborhood-size radius K")
		l         = flag.Int("l", 4, "centrality radius L")
		scope     = flag.Int("scope", 0, "local-maximum scope (0 = use L)")
		grid      = flag.Bool("grid", false, "jittered-grid layout instead of uniform")
		radioKind = flag.String("radio", "udg", "radio model: udg, qudg, lognormal")
		qAlpha    = flag.Float64("qalpha", 0.4, "QUDG alpha")
		qP        = flag.Float64("qp", 0.3, "QUDG link probability in the gray zone")
		lnEps     = flag.Float64("eps", 1, "log-normal epsilon = sigma/eta")
		rangeMul  = flag.Float64("rangemul", 1, "multiply the calibrated UDG range (QUDG/log-normal)")
		svgDir    = flag.String("svg", "", "directory to write stage SVGs into")
		pngDir    = flag.String("png", "", "directory to write stage PNGs into")
		list      = flag.Bool("list", false, "list available shapes and exit")
		jsonPath  = flag.String("json", "", "write the extraction result as JSON")
		netPath   = flag.String("savenet", "", "write the network (positions+links) as JSON")
		tracePath = flag.String("trace", "", "write a structured span/event trace as JSONL")
		metricsOn = flag.Bool("metrics", false, "dump Prometheus-text metrics on exit")
		obsAddr   = flag.String("obs", "", "serve the live observability plane on this address (e.g. 127.0.0.1:0): /metrics, /runs, /trace, /profile, /healthz, /debug/pprof")
	)
	flag.Parse()

	var traceSink *bfskel.JSONLSink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		traceSink = bfskel.NewJSONLSink(f)
		defer traceSink.Flush()
	}
	var ob bfskel.ObsScope
	if *obsAddr != "" {
		ob = bfskel.NewLiveObsScope(0, traceSink)
		srv, err := ob.Serve(*obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving on http://%s/ (metrics, runs, trace, profile, pprof)\n", srv.Addr())
	} else if traceSink != nil {
		ob.Tracer = bfskel.NewTracer(traceSink)
	}
	if *metricsOn {
		if ob.Metrics == nil {
			ob.Metrics = bfskel.NewMetricsRegistry()
		}
		defer func() { ob.Metrics.WritePrometheus(os.Stdout) }()
	}

	if *list {
		for _, name := range bfskel.ShapeNames() {
			s := bfskel.MustShape(name)
			fmt.Printf("%-10s holes=%d  %s\n", name, s.Holes(), s.Description)
		}
		return nil
	}

	shape, err := bfskel.ShapeByName(*shapeName)
	if err != nil {
		return err
	}
	layout := bfskel.LayoutUniform
	if *grid {
		layout = bfskel.LayoutGrid
	}
	spec := bfskel.NetworkSpec{
		Shape: shape, N: *n, TargetDeg: *deg, Seed: *seed, Layout: layout,
	}
	switch *radioKind {
	case "udg":
		// calibrated from TargetDeg
	case "qudg":
		r := bfskel.RadioRangeForDegree(shape.Poly.Area(), *n, *deg) * *rangeMul
		spec.Radio = bfskel.QUDG{R: r, Alpha: *qAlpha, P: *qP}
	case "lognormal":
		// The paper fixes the base range at its epsilon=0 (UDG) value and
		// lets the shadowing tail raise the average degree (Fig. 7), so
		// calibrate a UDG range for -deg first and disable re-calibration.
		probe, err := bfskel.BuildNetwork(spec)
		if err != nil {
			return err
		}
		udg, ok := probe.Radio.(bfskel.UDG)
		if !ok {
			return fmt.Errorf("probe network has unexpected radio %T", probe.Radio)
		}
		spec.Radio = bfskel.LogNormal{R: udg.R * *rangeMul, Epsilon: *lnEps}
		spec.TargetDeg = 0
	default:
		return fmt.Errorf("unknown radio model %q", *radioKind)
	}
	net, err := bfskel.BuildNetwork(spec)
	if err != nil {
		return err
	}
	params := bfskel.DefaultParams()
	params.K, params.L = *k, *l
	params.LocalMaxScope = *scope
	if *backendNm != "bfskel" {
		if *svgDir != "" || *pngDir != "" || *jsonPath != "" {
			return fmt.Errorf("-svg/-png/-json need the full pipeline result; they only work with -backend bfskel")
		}
		return runBackend(net, shape, *backendNm, params, ob, *n)
	}
	engine := net.ExtractorObs(ob)
	if engine.Tracer == nil {
		// A traced stage span measures the bytes its stage allocates,
		// which the per-phase KB column prints.
		engine.Tracer = bfskel.NewTracer(discard{})
	}
	res, err := engine.Extract(params)
	if err != nil {
		return err
	}

	fmt.Printf("shape=%s nodes=%d (largest component of %d deployed) avg.deg=%.2f\n",
		shape.Name, net.N(), *n, net.AvgDegree())
	fmt.Printf("sites=%d segment=%d voronoi=%d edges=%d\n",
		len(res.Sites), len(res.SegmentNodes), len(res.VoronoiNodes), len(res.Edges))
	fmt.Printf("coarse skeleton: nodes=%d cycles=%d components=%d\n",
		res.Coarse.NumNodes(), res.Coarse.CycleRank(), res.Coarse.Components())
	fmt.Printf("final skeleton:  nodes=%d cycles=%d components=%d (field holes=%d)\n",
		res.Skeleton.NumNodes(), res.Skeleton.CycleRank(), res.Skeleton.Components(), shape.Holes())
	fmt.Printf("loops: %d fake deleted, %d genuine kept; boundary nodes=%d\n",
		res.NumFakeLoops(), res.NumGenuineLoops(), len(res.Boundary))
	if st := res.Stats; st != nil {
		fmt.Println("phase timings:")
		for _, ph := range st.Phases {
			fmt.Printf("  %-9s %10s  %8.1f KB  sweeps=%d visited=%d\n",
				ph.Name, ph.Duration.Round(time.Microsecond), float64(ph.BytesAlloc)/1024,
				ph.Sweeps, ph.Visited)
		}
		fmt.Printf("  %-9s %10s\n", "total", st.Total.Round(time.Microsecond))
		fmt.Printf("work: floods=%d electionRounds=%d kEff=%d scopeEff=%d (adjusted %d/%d) medianKhop=%d pruned=%d\n",
			st.Floods, st.ElectionRounds,
			res.EffectiveK, res.EffectiveScope, st.KAdjustments, st.ScopeAdjustments,
			st.MedianKHopBall, st.PrunedNodes)
	}

	if *jsonPath != "" {
		if err := writeStage(*jsonPath, func(f *os.File) error {
			return bfskel.WriteResultJSON(net, res, f)
		}); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
	}
	if *netPath != "" {
		if err := writeStage(*netPath, func(f *os.File) error {
			return bfskel.SaveNetwork(net, f)
		}); err != nil {
			return err
		}
		fmt.Println("wrote", *netPath)
	}

	stages := []struct {
		name  string
		stage bfskel.RenderStage
	}{
		{"a-network", bfskel.StageNetwork},
		{"b-sites", bfskel.StageSites},
		{"c-segments", bfskel.StageSegments},
		{"d-coarse", bfskel.StageCoarse},
		{"h-final", bfskel.StageFinal},
		{"cells", bfskel.StageCells},
		{"boundary", bfskel.StageBoundary},
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for _, st := range stages {
			path := filepath.Join(*svgDir, fmt.Sprintf("%s-%s.svg", shape.Name, st.name))
			if err := writeStage(path, func(f *os.File) error {
				return bfskel.RenderResult(net, res, st.stage, f)
			}); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	if *pngDir != "" {
		if err := os.MkdirAll(*pngDir, 0o755); err != nil {
			return err
		}
		for _, st := range stages {
			path := filepath.Join(*pngDir, fmt.Sprintf("%s-%s.png", shape.Name, st.name))
			if err := writeStage(path, func(f *os.File) error {
				return bfskel.RenderResultPNG(net, res, st.stage, f)
			}); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	return nil
}

// runBackend extracts through a registered non-default skeleton backend and
// prints the cross-backend summary the canonical result supports.
func runBackend(net *bfskel.Network, shape bfskel.Shape, name string, params bfskel.Params, ob bfskel.ObsScope, deployed int) error {
	res, stats, err := bfskel.ExtractBackend(net, name, bfskel.BackendParams{
		Core: params, Tracer: ob.Tracer, Metrics: ob.Metrics,
	})
	if err != nil {
		return fmt.Errorf("backend %s: %w (registered: %v)", name, err, bfskel.Backends())
	}
	fmt.Printf("shape=%s nodes=%d (largest component of %d deployed) avg.deg=%.2f backend=%s\n",
		shape.Name, net.N(), deployed, net.AvgDegree(), name)
	fmt.Printf("skeleton: nodes=%d cycles=%d components=%d (field holes=%d)\n",
		res.Skeleton.NumNodes(), res.Skeleton.CycleRank(), res.Skeleton.Components(), shape.Holes())
	if res.Boundary != nil {
		fmt.Printf("boundary substrate: %d nodes\n", len(res.Boundary))
	}
	if stats != nil {
		fmt.Println("stage timings:")
		for _, ph := range stats.Phases {
			fmt.Printf("  %-10s %10s\n", ph.Name, ph.Duration.Round(time.Microsecond))
		}
		fmt.Printf("  %-10s %10s\n", "total", stats.Total.Round(time.Microsecond))
	}
	return nil
}

// writeStage renders into a freshly created file, folding the close error.
func writeStage(path string, render func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	renderErr := render(f)
	if closeErr := f.Close(); renderErr == nil {
		renderErr = closeErr
	}
	if renderErr != nil {
		return fmt.Errorf("render %s: %w", path, renderErr)
	}
	return nil
}
