package bench

import (
	"fmt"
	"io"
)

// WriteRun prints one run: its header, any failed checks, every metric with
// its unit and sample count, and the self-time table of a traced run.
func WriteRun(w io.Writer, r *Run) {
	h := r.Header
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s correct=%v attempted=%d failed=%d | GOMAXPROCS=%d nproc=%d %s %q commit=%s\n",
		r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed,
		h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.CPUModel, h.Commit)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "  -- per-layer self time --")
		writeLayers(w, r.Layers)
	}
}

// WriteSummary prints, per workload and metric, the median and quartiles
// across the untraced runs and their spread (IQR over median).
func WriteSummary(w io.Writer, runs []*Run) {
	rs := &ResultSet{Runs: runs}
	units := map[string]string{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			units[name] = m.Unit
		}
	}
	fmt.Fprintf(w, "== summary across runs: median [q1, q3] spread\n")
	values := rs.values()
	for _, wl := range sortedKeys(values) {
		for _, name := range sortedKeys(values[wl]) {
			xs := runValues(values[wl][name])
			q1, q2, q3 := Quartiles(xs)
			fmt.Fprintf(w, "  %-18s %-34s %14.6g [%.6g, %.6g] %6.2f%% %s n=%d\n",
				wl, name, q2, q1, q3, 100*Spread(xs), units[name], len(xs))
		}
	}
}
