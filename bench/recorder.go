package bench

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"bfskel"
)

// Metric is one reported measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value (1 for exact counts).
	N int `json:"n"`
}

// maxFailures bounds the failure messages a run keeps.
const maxFailures = 20

// p90MinSamples is the sample count from which a p90 has at least ten
// samples beyond it; below it only the median is reported.
const p90MinSamples = 100

// recorder collects one workload run: timed points (operation latencies,
// per-layer timings and ratios), exact counts, runtime counters per
// operation kind, correctness outcomes and, in a traced run, the spans.
type recorder struct {
	cfg    Config
	tracer *bfskel.Tracer // nil when untraced
	ring   *bfskel.RingSink
	stack  []*bfskel.Span // open bench spans, innermost last
	calib  *calibrator

	window   time.Time // when the measurement window opened
	deadline time.Time
	ops      int       // timed operations
	extracts int       // timed extractions
	at       time.Time // midpoint of the latest timed call

	points       []point
	group        int // open group, or -1
	groups       int
	failedGroups map[int]bool
	passes       int // completed workload passes

	exact  map[string]Metric // counts and one-off values
	meters map[string]*meter // op kind -> runtime counters

	attempted, failed int
	failures          []string
	digests           map[string]string
	golden            map[string]string // expected digests (seed 1 only)
	homotopy          [2]int            // [fields checked, fields whose cycle rank equals their holes]

	before, after []metrics.Sample
}

// point is one recorded value, reported through the median (or, for
// latencies, the statistics of latency) of its name's values. Timings are
// scaled to the calibration speed at the time they were taken. Points
// recorded inside a group are first summed per group.
type point struct {
	// name is the metric, "lat:<kind>" for an operation latency, or
	// "overhead:<0|1>" for an extraction without or with the tracer.
	name  string
	unit  string
	at    time.Time
	v     float64
	group int
}

func newRecorder(cfg Config, golden map[string]string) (*recorder, error) {
	calib, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	r := &recorder{
		cfg:          cfg,
		calib:        calib,
		group:        -1,
		failedGroups: map[int]bool{},
		exact:        map[string]Metric{},
		meters:       map[string]*meter{},
		digests:      map[string]string{},
		golden:       golden,
	}
	if cfg.Trace {
		r.ring = bfskel.NewRingSink(0)
		r.tracer = bfskel.NewTracer(r.ring)
	}
	r.before = make([]metrics.Sample, len(runtimeMetricNames))
	r.after = make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		r.before[i].Name = name
		r.after[i].Name = name
	}
	return r, nil
}

// begin opens a bench span nested under the innermost open one; end closes
// it. Both are no-ops in an untraced run.
func (r *recorder) begin(name string) {
	if r.tracer == nil {
		return
	}
	var sp *bfskel.Span
	if n := len(r.stack); n > 0 {
		sp = r.stack[n-1].StartSpan(name)
	} else {
		sp = r.tracer.StartSpan(name)
	}
	r.stack = append(r.stack, sp)
}

func (r *recorder) end() {
	if n := len(r.stack); n > 0 {
		r.stack[n-1].End()
		r.stack = r.stack[:n-1]
	}
}

// call times fn inside a bench span and returns its wall time in ms; points
// recorded next are stamped with the call's midpoint.
func (r *recorder) call(span string, fn func() error) (float64, error) {
	r.begin(span)
	t0 := time.Now() //lint:allow determinism benchmark timing
	err := fn()
	d := time.Since(t0)
	r.end()
	r.at = t0.Add(d / 2)
	return float64(d) / float64(time.Millisecond), err
}

// setup builds a workload's state reps times, timing each repetition for
// setup_s, and keeps the last. The previous repetition's state is dropped
// and collected before the next starts, so no repetition pays for another's
// garbage or memory. Each repetition is a group, so the builds inside it sum
// to one sample.
func setup[T any](r *recorder, reps int, build func() (T, error)) (T, error) {
	var state T
	for rep := 0; rep < reps; rep++ {
		var zero T
		state = zero
		runtime.GC()
		r.calib.measure()
		r.beginGroup()
		ms, err := r.call("setup", func() (err error) {
			state, err = build()
			return err
		})
		r.endGroup(err == nil)
		if err != nil {
			return state, fmt.Errorf("setup %d: %w", rep, err)
		}
		r.sample("setup_s", "s", ms/1000)
	}
	runtime.GC()
	r.calib.measure()
	return state, nil
}

// more reports whether the measurement window is still open; at least min
// timed operations run regardless. The first call opens the window, so the
// traced runs' standalone layer re-executions do not use it up.
func (r *recorder) more(min int) bool {
	now := time.Now() //lint:allow determinism benchmark timing
	if r.deadline.IsZero() {
		r.window = now
		r.deadline = now.Add(time.Duration(r.cfg.Seconds * float64(time.Second)))
	}
	return r.ops < min || now.Before(r.deadline)
}

// op runs one timed operation of the given kind: traced under span, metered
// for the runtime.<kind>.* counters, and returns its wall time in ms. The
// caller records the latency of a successful operation with addLatency and
// reports the outcome, after its own checks, through count.
func (r *recorder) op(kind, span string, fn func() error) (float64, error) {
	m := r.meters[kind]
	if m == nil {
		m = &meter{}
		r.meters[kind] = m
	}
	r.calib.tick()
	metrics.Read(r.before)
	cpu0 := cpuSeconds()
	ms, err := r.call(span, fn)
	cpu1 := cpuSeconds()
	metrics.Read(r.after)
	m.add(ms/1000, cpu1-cpu0, r.before, r.after)
	r.ops++
	return ms, err
}

// addLatency records one successful operation's wall time.
func (r *recorder) addLatency(kind string, ms float64) {
	r.sample("lat:"+kind, "ms", ms)
}

// sample records one value of a metric reported as the median over the run.
func (r *recorder) sample(name, unit string, v float64) {
	r.points = append(r.points, point{name: name, unit: unit, at: r.at, v: v, group: r.group})
}

// beginGroup opens a group: until endGroup, every point is summed with the
// others of its name in the group, and the sum counts as one sample. A
// workload whose operations mix fields of different sizes reports per-pass
// sums this way: the median of a mixture jumps between the fields that
// straddle it, while pass sums vary smoothly.
func (r *recorder) beginGroup() {
	r.group = r.groups
	r.groups++
}

// endGroup closes the open group; ok false (an operation in it failed)
// drops its sums, whose parts would be incomplete.
func (r *recorder) endGroup(ok bool) {
	if !ok {
		r.failedGroups[r.group] = true
	}
	r.group = -1
}

// count records one attempted operation or check; a non-nil error marks it
// failed.
func (r *recorder) count(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, err.Error())
	}
}

// set records an exact value.
func (r *recorder) set(name, unit string, v float64) {
	r.exact[name] = Metric{Value: v, Unit: unit, N: 1}
}

// digest records a reproducible output fingerprint and, at seed 1, checks it
// against the golden file.
func (r *recorder) digest(key, value string) {
	r.digests[key] = value
	if want, ok := r.golden[key]; ok {
		var err error
		if want != value {
			err = fmt.Errorf("golden %s: got %s, want %s", key, value, want)
		}
		r.count(err)
	}
}

// checkHomotopy tallies whether an extracted skeleton has one independent
// cycle per hole of its field.
func (r *recorder) checkHomotopy(res *bfskel.Result, holes int) {
	r.homotopy[0]++
	if res.Skeleton.CycleRank() == holes {
		r.homotopy[1]++
	}
}

// isTime reports whether a unit is a duration, scaled by calibration.
func isTime(unit string) bool { return unit == "ms" || unit == "s" }

// values resolves the recorded points into per-name sample lists: timings
// scaled to the calibration speed, group members summed, failed groups
// dropped.
func (r *recorder) values() (map[string][]float64, map[string]string) {
	values, units := map[string][]float64{}, map[string]string{}
	sums := map[string]map[int]float64{}
	for _, p := range r.points {
		v := p.v
		if isTime(p.unit) {
			v *= r.calib.factor(p.at)
		}
		units[p.name] = p.unit
		switch {
		case p.group < 0:
			values[p.name] = append(values[p.name], v)
		case !r.failedGroups[p.group]:
			if sums[p.name] == nil {
				sums[p.name] = map[int]float64{}
			}
			sums[p.name][p.group] += v
		}
	}
	for name, byGroup := range sums {
		groups := make([]int, 0, len(byGroup))
		for g := range byGroup {
			groups = append(groups, g)
		}
		sort.Ints(groups)
		for _, g := range groups {
			values[name] = append(values[name], byGroup[g])
		}
	}
	return values, units
}

// summarize reports everything recorded. opKind names the workload's
// headline operation, reported as op_ms_* and runtime.op.*.
func (r *recorder) summarize(opKind string) map[string]Metric {
	out := map[string]Metric{}
	for k, v := range r.exact {
		out[k] = v
	}
	// The headline operation reports as op_*, every other kind under its own
	// name; extraction keeps its name as well, since every workload has it.
	name := func(kind string) string {
		if kind == opKind {
			return "op"
		}
		return kind
	}
	values, units := r.values()
	for key, vs := range values {
		if kind, ok := strings.CutPrefix(key, "lat:"); ok {
			latency(out, name(kind), vs)
			if kind == opKind && kind == "extract" {
				latency(out, kind, vs)
			}
			continue
		}
		if !strings.HasPrefix(key, "overhead:") {
			out[key] = Metric{Value: Median(vs), Unit: units[key], N: len(vs)}
		}
	}
	if untraced, traced := values["overhead:0"], values["overhead:1"]; r.tracer != nil && len(untraced) > 0 && len(traced) > 0 {
		out["obs.trace_overhead_frac"] = Metric{Value: Median(traced)/Median(untraced) - 1, Unit: "frac", N: len(untraced) + len(traced)}
	}
	for kind, m := range r.meters {
		m.report(out, "runtime."+name(kind)+".")
		if kind == opKind && kind == "extract" {
			m.report(out, "runtime.extract.")
		}
	}
	if r.homotopy[0] > 0 {
		out["core.homotopy_frac"] = Metric{Value: float64(r.homotopy[1]) / float64(r.homotopy[0]), Unit: "frac", N: r.homotopy[0]}
	}
	out["calib.ref_ms"] = Metric{Value: r.calib.medianMs(), Unit: "ms", N: len(r.calib.refs)}
	out["peak_rss_mb"] = Metric{Value: peakRSSMB(), Unit: "MB", N: 1}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	out["failed_frac"] = Metric{Value: failedFrac, Unit: "frac", N: r.attempted}
	return out
}

// latency reports an operation kind's median, and its p90 where enough
// samples back it.
func latency(out map[string]Metric, name string, ms []float64) {
	out[name+"_ms_p50"] = Metric{Value: Median(ms), Unit: "ms", N: len(ms)}
	if len(ms) >= p90MinSamples {
		out[name+"_ms_p90"] = Metric{Value: Quantile(ms, 0.9), Unit: "ms", N: len(ms)}
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runtimeMetricNames are the runtime/metrics counters read around every
// timed operation, in meter.add order.
var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// meter accumulates the runtime cost of one operation kind.
type meter struct {
	ops                    int
	wall, cpu              float64 // seconds; cpu from getrusage
	bytes, objects, cycles float64
	gcCPU, busyCPU         float64 // runtime/metrics CPU-class estimates
}

func (m *meter) add(wall, cpu float64, before, after []metrics.Sample) {
	d := func(i int) float64 { return sampleValue(after[i]) - sampleValue(before[i]) }
	m.ops++
	m.wall += wall
	m.cpu += cpu
	m.bytes += d(0)
	m.objects += d(1)
	m.cycles += d(2)
	m.gcCPU += d(3)
	m.busyCPU += d(4) - d(5)
}

// report writes the per-operation means under prefix.
func (m *meter) report(out map[string]Metric, prefix string) {
	if m.ops == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(m.ops) }
	gcFrac := 0.0
	if m.busyCPU > 0 {
		gcFrac = m.gcCPU / m.busyCPU
	}
	idle := 0.0
	if m.wall > 0 {
		idle = 1 - m.cpu/(m.wall*float64(runtime.GOMAXPROCS(0)))
	}
	put := func(name, unit string, v float64) { out[prefix+name] = Metric{Value: v, Unit: unit, N: m.ops} }
	put("alloc_mb", "MB", per(m.bytes)/(1<<20))
	put("allocs", "count", per(m.objects))
	put("gc_cycles", "count", per(m.cycles))
	put("gc_cpu_frac", "frac", gcFrac)
	put("cpu_ms", "ms", per(m.cpu)*1000)
	put("idle_core_frac", "frac", idle)
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
