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
//	skelbench -scorecard card.json                      # cross-backend scorecard as JSON
//	skelbench -ladder 10000,100000,1000000              # scale ladder: build/extract wall time + peak RSS per size
//	skelbench -ladder 100000 -ladder-ceiling 120 -ladder-out ladder.json  # CI capacity gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
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
		engine    = flag.String("engine", "", "force the simnet round engine for the protocol phases: serial or parallel (empty = auto)")
		scorePath = flag.String("scorecard", "", "run the cross-backend scorecard instead of the figures and write it as JSON to this path")
		backends  = flag.String("backends", "bfskel,map,case,localsep", "comma-separated skeleton backends for -scorecard")
		shapesF   = flag.String("shapes", "window,twoholes,spiral", "comma-separated shapes for -scorecard")
		nOverride = flag.Int("n", 0, "override the node count of every -scorecard scenario (0 = per-shape paper defaults)")
		ladderF   = flag.String("ladder", "", "comma-separated node counts for the scale ladder (e.g. 10000,100000,1000000); with -scorecard the rungs embed in the scorecard JSON")
		ladderSh  = flag.String("ladder-shape", "window", "deployment field for -ladder rungs")
		ladderDeg = flag.Float64("ladder-deg", 7, "target average degree for -ladder rungs")
		ladderOut = flag.String("ladder-out", "", "write the -ladder rungs as standalone JSON to this path (without -scorecard)")
		ladderMax = flag.Float64("ladder-ceiling", 0, "fail when any -ladder rung's extraction exceeds this many seconds (0 = no ceiling)")
		churnF    = flag.String("churn", "", "comma-separated churn rates (fraction of nodes failing per update batch, e.g. 0.0001,0.001,0.01): stream steady-state failure/recovery batches through the incremental extractor and report updates/sec vs from-scratch; with -scorecard the rows embed in the scorecard JSON")
		churnN    = flag.Int("churn-n", 100000, "node count of the -churn field")
		churnSh   = flag.String("churn-shape", "window", "deployment field for -churn")
		churnDeg  = flag.Float64("churn-deg", 7, "target average degree for -churn")
		churnB    = flag.Int("churn-batches", 20, "timed update batches per -churn rate")
		churnOut  = flag.String("churn-out", "", "write the -churn rows as standalone JSON to this path (without -scorecard)")
		churnMax  = flag.Float64("churn-ceiling", 0, "fail when the whole -churn run exceeds this many seconds of wall clock (0 = no ceiling)")
		churnMin  = flag.Float64("churn-floor", 0, "fail when any -churn rate's incremental speedup vs from-scratch falls below this factor (0 = no floor)")
	)
	flag.Parse()

	switch *engine {
	case "", "serial", "parallel":
		if *engine != "" {
			// The experiment drivers build their own simulators; the
			// process-wide override is how a forced engine reaches them.
			os.Setenv("BFSKEL_SIMNET_ENGINE", *engine)
		}
	default:
		return fmt.Errorf("unknown -engine %q (want serial or parallel)", *engine)
	}

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

	// The ladder runs after any scorecard measurement: the 10^6-node rung
	// leaves a multi-hundred-MB heap behind, which would skew the GC-heavy
	// backends' wall times if it ran first.
	ladderFn := func() ([]bfskel.LadderRung, error) {
		if *ladderF == "" {
			return nil, nil
		}
		return runLadder(*ladderF, *ladderSh, *ladderDeg, *seed, *ladderMax, *ladderOut, *scorePath == "")
	}

	churnFn := func() ([]bfskel.ChurnRow, error) {
		if *churnF == "" {
			return nil, nil
		}
		return runChurn(*churnF, *churnSh, *churnN, *churnDeg, *churnB, *seed,
			*churnMax, *churnMin, *churnOut, *scorePath == "")
	}

	if *scorePath != "" {
		return runScorecard(*scorePath, *backends, *shapesF, *nOverride, *seed, ladderFn, churnFn, ob, *metricsOn)
	}
	standalone := false
	if *ladderF != "" {
		if _, err := ladderFn(); err != nil {
			return err
		}
		standalone = true
	}
	if *churnF != "" {
		if _, err := churnFn(); err != nil {
			return err
		}
		standalone = true
	}
	if standalone && *fig == "" {
		// Ladder/churn-only invocation: don't drag the full figure sweep
		// along.
		return nil
	}

	figures := bfskel.FigureNames()
	if *fig != "" {
		figures = []string{*fig}
	}
	rep := report{Date: time.Now().UTC().Format(time.RFC3339), Seed: *seed, Note: *note} //lint:allow determinism report date stamp; results are keyed by Seed
	for _, f := range figures {
		rows, err := bfskel.RunFigureObs(f, *seed, ob)
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

// runLadder drives the scale ladder (-ladder): one build + one extraction
// per requested size, with wall-time, stage, and peak-RSS reporting. The
// rungs are returned for embedding in a scorecard; standalone invocations
// optionally write them to their own JSON file. A non-zero ceiling turns
// the ladder into a CI gate: any errored rung or extraction slower than the
// ceiling fails the run.
func runLadder(sizeList, shape string, deg float64, seed int64, ceiling float64, outPath string, standalone bool) ([]bfskel.LadderRung, error) {
	var sizes []int
	for _, f := range strings.Split(sizeList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-ladder: bad size %q", f)
		}
		sizes = append(sizes, n)
	}
	rungs, err := bfskel.RunLadder(bfskel.LadderConfig{
		Shape: shape, Sizes: sizes, TargetDeg: deg, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Println("== ladder ==")
	for _, r := range rungs {
		fmt.Println(" ", r)
	}
	if standalone && outPath != "" {
		card := bfskel.Scorecard{
			Date:   time.Now().UTC().Format(time.RFC3339), //lint:allow determinism report date stamp; results are keyed by Seed
			Seed:   seed,
			Ladder: rungs,
		}
		data, err := json.MarshalIndent(&card, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Println("wrote", outPath)
	}
	for _, r := range rungs {
		if r.Err != "" {
			return nil, fmt.Errorf("-ladder: rung n=%d failed: %s", r.N, r.Err)
		}
		if ceiling > 0 && r.ExtractMs > ceiling*1000 {
			return nil, fmt.Errorf("-ladder-ceiling: rung n=%d extracted in %.1fms, over the %.0fs ceiling", r.N, r.ExtractMs, ceiling)
		}
	}
	return rungs, nil
}

// runChurn drives the churn-throughput bench (-churn): a steady stream of
// failure/recovery batches per rate through the incremental extractor, with
// updates/sec, fallback and dirty-fraction reporting. A non-zero ceiling or
// floor turns the bench into a CI gate: the ceiling bounds the whole run's
// wall clock, the floor asserts a minimum incremental-vs-full speedup.
func runChurn(rateList, shape string, n int, deg float64, batches int, seed int64, ceiling, floor float64, outPath string, standalone bool) ([]bfskel.ChurnRow, error) {
	var rates []float64
	for _, f := range strings.Split(rateList, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 || r > 1 {
			return nil, fmt.Errorf("-churn: bad rate %q", f)
		}
		rates = append(rates, r)
	}
	start := time.Now() //lint:allow determinism churn wall-time report; results are keyed by Seed
	rows, err := bfskel.RunChurnBench(bfskel.ChurnBenchConfig{
		Shape: shape, N: n, TargetDeg: deg, Seed: seed,
		Rates: rates, Batches: batches,
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	fmt.Println("== churn ==")
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	if standalone && outPath != "" {
		card := bfskel.Scorecard{
			Date:  time.Now().UTC().Format(time.RFC3339), //lint:allow determinism report date stamp; results are keyed by Seed
			Seed:  seed,
			Churn: rows,
		}
		data, err := json.MarshalIndent(&card, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Println("wrote", outPath)
	}
	for _, r := range rows {
		if r.Err != "" {
			return nil, fmt.Errorf("-churn: rate %g failed: %s", r.Rate, r.Err)
		}
		if floor > 0 && r.Speedup < floor {
			return nil, fmt.Errorf("-churn-floor: rate %g sustained %.1fx vs from-scratch, below the %.0fx floor", r.Rate, r.Speedup, floor)
		}
	}
	if ceiling > 0 && elapsed > time.Duration(ceiling*float64(time.Second)) {
		return nil, fmt.Errorf("-churn-ceiling: run took %.1fs, over the %.0fs ceiling", elapsed.Seconds(), ceiling)
	}
	return rows, nil
}

// runScorecard drives the cross-backend comparison: every named backend
// over every named shape through the facade's quality harness, printed as
// an aligned table and written as machine-readable JSON.
func runScorecard(path, backendList, shapeList string, nOverride int, seed int64, ladderFn func() ([]bfskel.LadderRung, error), churnFn func() ([]bfskel.ChurnRow, error), ob bfskel.ObsScope, metricsOn bool) error {
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
	// Churn before the ladder: the ladder's million-node rung leaves the heap
	// inflated, which skews the churn means if it runs first.
	card.Churn, err = churnFn()
	if err != nil {
		return err
	}
	card.Ladder, err = ladderFn()
	if err != nil {
		return err
	}
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
