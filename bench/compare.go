package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Spec is the part of BENCHMARK.json the benchmark itself reads: the
// workloads, and the metric lists with their units, directions and
// regression bounds.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric declaration. Bound, the share of the baseline
// median by which the metric may worsen, is set for end-to-end metrics only.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// SpecFile is the benchmark definition's file name.
const SpecFile = "BENCHMARK.json"

// FindSpec returns the path of the BENCHMARK.json in the working directory
// or the nearest directory above it.
func FindSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		path := filepath.Join(dir, SpecFile)
		if _, err := os.Stat(path); err == nil {
			return path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New(SpecFile + " not found in the working directory or above it")
		}
		dir = parent
	}
}

// LoadSpec reads a BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric looks a declared metric up in either list.
func (s *Spec) metric(name string) (SpecMetric, bool) {
	for _, list := range [][]SpecMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return SpecMetric{}, false
}

// ResultSet is a results file: the runs of one or more bfbench invocations
// of the same code.
type ResultSet struct {
	Schema string `json:"schema"`
	Runs   []*Run `json:"runs"`
}

// ResultSchema versions the results file layout.
const ResultSchema = "bfbench/1"

// LoadResults reads a results file.
func LoadResults(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != ResultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rs.Schema, ResultSchema)
	}
	return &rs, nil
}

// runValue is one run's value of a metric.
type runValue struct {
	seed  int64
	value float64
}

// values collects, per workload and metric, the values of the untraced runs
// in a set, in run order.
func (rs *ResultSet) values() map[string]map[string][]runValue {
	out := map[string]map[string][]runValue{}
	for _, run := range rs.Runs {
		if run.Trace {
			continue
		}
		m := out[run.Workload]
		if m == nil {
			m = map[string][]runValue{}
			out[run.Workload] = m
		}
		for name, v := range run.Metrics {
			m[name] = append(m[name], runValue{run.Seed, v.Value})
		}
	}
	return out
}

// Verdicts of a comparison row.
const (
	Unchanged  = "unchanged"
	Improved   = "improved"
	Regressed  = "REGRESSED"
	Unresolved = "unresolved"
)

// Row compares one metric of one workload across two result sets.
type Row struct {
	Workload, Metric string
	MedianA, MedianB float64
	// Delta is the relative change of the median, positive when B is worse.
	Delta float64
	// Spread is the larger of the two sets' IQR/median.
	Spread  float64
	Bound   float64
	Verdict string
}

// Compare gates set b against baseline a. Rows cover every end-to-end
// metric of spec with its bound, plus failed_frac and every exact count
// with a bound of 0.
//
// A bounded metric compares medians: a delta within the bound is
// unchanged, and a run-to-run spread wider than the bound leaves it
// unresolved unless every run of b beats every run of a. A zero-bound
// metric compares runs of equal seed, which must read exactly the same; it
// is unresolved when the sets share no seed.
func Compare(a, b *ResultSet, spec *Spec) []Row {
	va, vb := a.values(), b.values()
	var rows []Row
	for _, wl := range sortedKeys(va) {
		mb, ok := vb[wl]
		if !ok {
			continue
		}
		ma := va[wl]
		for _, name := range sortedKeys(ma) {
			xs, ys := ma[name], mb[name]
			if len(ys) == 0 {
				continue
			}
			decl, declared := spec.metric(name)
			lower := !declared || decl.Better != "higher"
			switch {
			case declared && decl.Bound > 0:
				rows = append(rows, judge(wl, name, xs, ys, decl.Bound, lower))
			case name == "failed_frac" || isCount(a, wl, name):
				rows = append(rows, judgeExact(wl, name, xs, ys, lower))
			}
		}
	}
	return rows
}

// isCount reports whether a metric of a workload is an exact count.
func isCount(rs *ResultSet, workload, name string) bool {
	for _, run := range rs.Runs {
		if m, ok := run.Metrics[name]; ok && run.Workload == workload {
			return m.Unit == "count" && m.N == 1
		}
	}
	return false
}

func newRow(wl, name string, xs, ys []runValue, bound float64, lower bool) Row {
	a, b := runValues(xs), runValues(ys)
	row := Row{Workload: wl, Metric: name, MedianA: Median(a), MedianB: Median(b), Bound: bound}
	row.Spread = math.Max(Spread(a), Spread(b))
	row.Delta = worsening(row.MedianA, row.MedianB, lower)
	return row
}

// worsening is the change from a to b as a share of a, positive when b is
// worse.
func worsening(a, b float64, lower bool) float64 {
	d := 0.0
	switch diff := b - a; {
	case diff == 0:
	case a == 0:
		d = math.Copysign(math.Inf(1), diff)
	default:
		d = diff / math.Abs(a)
	}
	if !lower {
		d = -d
	}
	return d
}

func runValues(ps []runValue) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.value
	}
	return out
}

func judge(wl, name string, xs, ys []runValue, bound float64, lower bool) Row {
	row := newRow(wl, name, xs, ys, bound, lower)
	allBetter := true
	for _, x := range xs {
		for _, y := range ys {
			if worsening(x.value, y.value, lower) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case row.Spread > bound:
		if allBetter {
			row.Verdict = Improved
		} else {
			row.Verdict = Unresolved
		}
	case row.Delta > bound:
		row.Verdict = Regressed
	case row.Delta < -bound:
		row.Verdict = Improved
	default:
		row.Verdict = Unchanged
	}
	return row
}

func judgeExact(wl, name string, xs, ys []runValue, lower bool) Row {
	row := newRow(wl, name, xs, ys, 0, lower)
	paired, worse, better := 0, false, false
	for _, x := range xs {
		for _, y := range ys {
			if x.seed != y.seed {
				continue
			}
			paired++
			switch d := worsening(x.value, y.value, lower); {
			case d > 0:
				worse = true
			case d < 0:
				better = true
			}
		}
	}
	switch {
	case paired == 0:
		row.Verdict = Unresolved
	case worse:
		row.Verdict = Regressed
	case better:
		row.Verdict = Improved
	default:
		row.Verdict = Unchanged
	}
	return row
}

// WriteCompare prints the comparison table and returns the number of
// regressions.
func WriteCompare(w io.Writer, rows []Row) int {
	fmt.Fprintf(w, "%-18s %-34s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "delta", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-34s %14.6g %14.6g %+8.2f%% %7.2f%% %6.2f%%  %s\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, 100*r.Delta, 100*r.Spread, 100*r.Bound, r.Verdict)
		counts[r.Verdict]++
	}
	verdicts := []string{Regressed, Unresolved, Improved, Unchanged}
	sort.Strings(verdicts)
	fmt.Fprintf(w, "%d rows:", len(rows))
	for _, v := range verdicts {
		fmt.Fprintf(w, " %d %s", counts[v], v)
	}
	fmt.Fprintln(w)
	return counts[Regressed]
}
