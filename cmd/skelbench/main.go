// Command skelbench regenerates the data series behind every figure and
// claim of the paper's evaluation (Figs. 1, 3-8, Sec. V complexity and
// parameter analyses) plus the baseline and routing comparisons. Each row
// prints the measured counterparts of what the paper reports: node counts,
// average degrees, skeleton size, loop structure (homotopy), medial
// quality, stability, and distributed cost.
//
// Usage:
//
//	skelbench                 # run every experiment
//	skelbench -fig fig5       # run one experiment
//	skelbench -seed 7         # change the deployment seed
//	skelbench -json out.json  # also dump rows (with per-phase stats) as JSON
//	skelbench -note "..."     # record a free-form note in the JSON report
//	skelbench -trace t.jsonl  # emit a structured span/event trace (see cmd/skeltrace)
//	skelbench -metrics        # dump Prometheus-text metrics on exit
//	skelbench -obs 127.0.0.1:0          # serve the live observability plane
//	                                    # (/metrics /runs /trace /profile /debug/pprof)
//	skelbench -obs :6060 -obs-wait      # keep serving after the run, until interrupted
//	skelbench -scorecard card.json      # cross-backend scorecard as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"bfskel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "skelbench:", err)
		os.Exit(1)
	}
}

// figureDump is one experiment's rows in the machine-readable report.
type figureDump struct {
	Figure string                 `json:"figure"`
	Rows   []bfskel.ExperimentRow `json:"rows"`
}

// report is the top-level JSON document written by -json.
type report struct {
	Date string `json:"date"`
	Seed int64  `json:"seed"`
	// Note is free-form operator context (-note), e.g. which commit or
	// benchmark delta the report documents.
	Note    string       `json:"note,omitempty"`
	Figures []figureDump `json:"figures"`
	// Metrics is the final registry snapshot; present whenever the run
	// collected metrics (-metrics, or any -json run).
	Metrics *bfskel.MetricsSnapshot `json:"metrics,omitempty"`
}

func run() error {
	var (
		fig       = flag.String("fig", "", "experiment to run (empty = all); one of "+strings.Join(bfskel.FigureNames(), ", "))
		seed      = flag.Int64("seed", 1, "deployment/link seed")
		jsonPath  = flag.String("json", "", "write all rows (including per-phase stats) as JSON")
		note      = flag.String("note", "", "free-form note recorded in the -json report")
		tracePath = flag.String("trace", "", "write a structured span/event trace as JSONL (see cmd/skeltrace)")
		metricsOn = flag.Bool("metrics", false, "dump Prometheus-text metrics on exit")
		obsAddr   = flag.String("obs", "", "serve the live observability plane on this address (e.g. 127.0.0.1:0): /metrics, /runs, /trace, /profile, /healthz, /debug/pprof")
		obsWait   = flag.Bool("obs-wait", false, "with -obs: keep serving after the run completes, until interrupted")
		scorePath = flag.String("scorecard", "", "run the cross-backend scorecard instead of the figures and write it as JSON to this path")
		backends  = flag.String("backends", "bfskel,map,case,localsep", "comma-separated skeleton backends for -scorecard")
		shapesF   = flag.String("shapes", "window,twoholes,spiral", "comma-separated shapes for -scorecard")
		nOverride = flag.Int("n", 0, "override the node count of every -scorecard scenario (0 = per-shape paper defaults)")
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
	}
	var ob bfskel.ObsScope
	if *obsAddr != "" {
		// The live plane needs the full wiring: recorder + stream + metrics,
		// with the optional file sink riding along.
		ob = bfskel.NewLiveObsScope(0, traceSink)
		srv, err := ob.Serve(*obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving on http://%s/ (metrics, runs, trace, profile, pprof)\n", srv.Addr())
		if *obsWait {
			defer waitInterrupted(ob)
		}
	} else {
		if traceSink != nil {
			ob.Tracer = bfskel.NewTracer(traceSink)
		}
		if *metricsOn || *jsonPath != "" {
			ob.Metrics = bfskel.NewMetricsRegistry()
		}
	}

	if *scorePath != "" {
		return runScorecard(*scorePath, *backends, *shapesF, *nOverride, *seed, ob, *metricsOn)
	}

	figures := bfskel.FigureNames()
	if *fig != "" {
		figures = []string{*fig}
	}
	rep := report{Date: time.Now().UTC().Format(time.RFC3339), Seed: *seed, Note: *note} //lint:allow determinism report date stamp; results are keyed by Seed
	for _, f := range figures {
		rows, err := bfskel.RunFigure(f, *seed, ob)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		fmt.Printf("== %s ==\n", f)
		for _, r := range rows {
			fmt.Println(" ", r)
		}
		rep.Figures = append(rep.Figures, figureDump{Figure: f, Rows: rows})
	}
	if ob.Metrics != nil {
		snap := ob.Metrics.Snapshot()
		rep.Metrics = &snap
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
	}
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			return fmt.Errorf("trace %s: %w", *tracePath, err)
		}
		fmt.Println("wrote", *tracePath)
	}
	if *metricsOn {
		if err := ob.Metrics.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// runScorecard drives the cross-backend comparison: every named backend
// over every named shape through the facade's quality harness, printed as
// an aligned table and written as machine-readable JSON.
func runScorecard(path, backendList, shapeList string, nOverride int, seed int64, ob bfskel.ObsScope, metricsOn bool) error {
	defaults := map[string]struct {
		n   int
		deg float64
	}{}
	fig1 := bfskel.Fig1Scenario()
	defaults[fig1.ShapeName] = struct {
		n   int
		deg float64
	}{fig1.N, fig1.Deg}
	for _, sc := range bfskel.Fig4Scenarios() {
		defaults[sc.ShapeName] = struct {
			n   int
			deg float64
		}{sc.N, sc.Deg}
	}

	var scenarios []bfskel.ScorecardScenario
	for _, name := range strings.Split(shapeList, ",") {
		name = strings.TrimSpace(name)
		shape, err := bfskel.ShapeByName(name)
		if err != nil {
			return err
		}
		d, ok := defaults[name]
		if !ok {
			d.n, d.deg = 2500, 7.0
		}
		if nOverride > 0 {
			d.n = nOverride
		}
		scenarios = append(scenarios, bfskel.ScorecardScenario{
			Name: name,
			Spec: bfskel.NetworkSpec{
				Shape: shape, N: d.n, TargetDeg: d.deg,
				Seed: seed, Layout: bfskel.LayoutGrid,
			},
		})
	}
	names := strings.Split(backendList, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	card, err := bfskel.RunScorecard(scenarios, names, ob)
	if err != nil {
		return err
	}
	card.Date = time.Now().UTC().Format(time.RFC3339) //lint:allow determinism report date stamp; results are keyed by Seed
	fmt.Println(card)
	data, err := json.MarshalIndent(card, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if metricsOn {
		return ob.Metrics.WritePrometheus(os.Stdout)
	}
	return nil
}

// waitInterrupted keeps the process alive until SIGINT so the obs server
// stays queryable after the sweep (-obs-wait). A side tracer emits heartbeat
// spans into the live stream only — not the flight recorder — so /trace
// always has traffic without polluting /runs.
func waitInterrupted(ob bfskel.ObsScope) {
	fmt.Fprintln(os.Stderr, "obs: run complete; serving until interrupted (-obs-wait)")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	done := make(chan struct{})
	go func() {
		hb := bfskel.NewTracer(ob.Stream)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			hb.StartSpan("heartbeat", bfskel.TraceAttr{Key: "seq", Val: i}).End()
			time.Sleep(time.Second)
		}
	}()
	<-stop
	close(done)
	signal.Stop(stop)
	fmt.Fprintln(os.Stderr, "obs: interrupted, shutting down")
}
