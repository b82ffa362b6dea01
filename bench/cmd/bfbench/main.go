// Command bfbench runs the repository's benchmark: four closed-loop
// workloads over the skeleton-extraction API, each in a fresh process at
// GOMAXPROCS=2, printing every metric with its unit and sample count and
// checking every output. The last line of standard output is one JSON
// object with the run's correctness, operation counts and the metrics
// BENCHMARK.json declares: the end-to-end metrics for an untraced run, the
// per-layer metrics for a traced one.
//
// Usage, from the bench directory:
//
//	go run ./cmd/bfbench -seed 1                     # all workloads, untraced
//	go run ./cmd/bfbench -workload field-1m -trace 1 # per-layer attribution
//	go run ./cmd/bfbench -runs 5 -out set.json       # five seeds per workload
//	go run ./cmd/bfbench -compare a.json b.json      # noise-aware gate
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bfskel/bench"
)

// gomaxprocs is the parallelism every workload process runs at.
const gomaxprocs = 2

// childTimeout bounds one workload process; the slowest, traced field-1m,
// takes under a minute.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Int64("seed", 1, "input seed; -runs N uses seeds seed..seed+N-1")
		seconds  = flag.Float64("seconds", 15, "measurement window of each workload run")
		trace    = flag.String("trace", "0", `"0" untraced; "1" traced, spans written under .bench_build/; any other value: traced, spans written to that path`)
		runs     = flag.Int("runs", 1, "runs per workload, each with the next seed")
		out      = flag.String("out", "", "write every run to this results file")
		golden   = flag.String("golden-write", "", "write the runs' seed-1 output digests to this golden file")
		compare  = flag.Bool("compare", false, "compare two results files: bfbench -compare a.json b.json")
		child    = flag.Bool("child", false, "run one workload in this process (used by bfbench itself)")
	)
	flag.Parse()
	if *compare {
		return compareCmd(flag.Args())
	}
	traced := *trace != "0"
	if *child {
		return childCmd(*workload, bench.Config{Seed: *seed, Seconds: *seconds, Trace: traced, TracePath: *trace})
	}

	specPath, err := bench.FindSpec()
	if err != nil {
		return fail(err)
	}
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := bench.WorkloadByName(*workload); !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *runs < 1 {
		return fail(errors.New("-runs must be at least 1"))
	}

	var all []*bench.Run
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			s := *seed + int64(i)
			tr := *trace
			if traced {
				tr = tracePath(*trace, name, s, len(names)*(*runs) > 1)
			}
			r, err := spawn(name, s, *seconds, tr)
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", name, s, err))
			}
			bench.WriteRun(os.Stdout, r)
			all = append(all, r)
		}
	}
	if *runs > 1 {
		bench.WriteSummary(os.Stdout, all)
	}
	if *out != "" {
		if err := writeJSON(*out, bench.ResultSet{Schema: bench.ResultSchema, Runs: all}); err != nil {
			return fail(err)
		}
	}
	if *golden != "" {
		if err := writeGolden(*golden, all); err != nil {
			return fail(err)
		}
	}
	return printLine(os.Stdout, spec, all, traced)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bfbench:", err)
	return 1
}

// childCmd runs one workload and writes its Run as JSON to stdout.
func childCmd(workload string, cfg bench.Config) int {
	if !cfg.Trace {
		cfg.TracePath = ""
	}
	r, err := bench.RunWorkload(workload, cfg)
	if err != nil {
		return fail(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		return fail(err)
	}
	return 0
}

// spawn runs one workload in a fresh process, so its peak RSS and runtime
// counters belong to it alone, and waits for it.
func spawn(workload string, seed int64, seconds float64, trace string) (*bench.Run, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	var r bench.Run
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("workload output: %w", err)
	}
	return &r, nil
}

// tracePath names a traced run's span file. "1" stores it under
// .bench_build/; an explicit path is used as given for a single run and
// suffixed with workload and seed when several runs share it.
func tracePath(flagVal, workload string, seed int64, several bool) string {
	suffix := fmt.Sprintf("-%s-s%d", workload, seed)
	if flagVal == "1" {
		return filepath.Join(".bench_build", "trace"+suffix+".jsonl")
	}
	if !several {
		return flagVal
	}
	ext := filepath.Ext(flagVal)
	return strings.TrimSuffix(flagVal, ext) + suffix + ext
}

// printLine writes the final result line: the metrics BENCHMARK.json
// declares for this mode, each the median over the runs, prefixed with the
// workload when several ran. It returns the exit code.
func printLine(w io.Writer, spec *bench.Spec, runs []*bench.Run, traced bool) int {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	byWorkload := map[string][]*bench.Run{}
	var order []string
	for _, r := range runs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		line.Correct = line.Correct && r.Correct
		if byWorkload[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, wl := range order {
		prefix := ""
		if len(order) > 1 {
			prefix = wl + "/"
		}
		for _, d := range declared {
			var xs []float64
			for _, r := range byWorkload[wl] {
				if m, ok := r.Metrics[d.Name]; ok && m.Unit == d.Unit {
					xs = append(xs, m.Value)
				}
			}
			if len(xs) < len(byWorkload[wl]) {
				fmt.Fprintf(os.Stderr, "bfbench: %s did not report %s in %s\n", wl, d.Name, d.Unit)
				line.Correct = false
				continue
			}
			line.Metrics[prefix+d.Name] = metric{Value: bench.Median(xs), Unit: d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(w, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func compareCmd(args []string) int {
	if len(args) != 2 {
		return fail(errors.New("usage: bfbench -compare a.json b.json"))
	}
	specPath, err := bench.FindSpec()
	if err != nil {
		return fail(err)
	}
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	a, err := bench.LoadResults(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := bench.LoadResults(args[1])
	if err != nil {
		return fail(err)
	}
	if bench.WriteCompare(os.Stdout, bench.Compare(a, b, spec)) > 0 {
		return 1
	}
	return 0
}

// writeGolden stores the output digests of the untraced seed-1 runs.
func writeGolden(path string, runs []*bench.Run) error {
	golden := map[string]map[string]string{}
	for _, r := range runs {
		if r.Seed == 1 && !r.Trace {
			golden[r.Workload] = r.Digests
		}
	}
	if len(golden) == 0 {
		return errors.New("-golden-write needs an untraced seed-1 run")
	}
	return writeJSON(path, golden)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
