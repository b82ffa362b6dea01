package skeleton

import (
	"time"

	"bfskel/internal/core"
	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// Run measures one backend extraction, giving every backend the same
// observable shape the staged core engine emits: an "extract" root span
// (attribute "backend") with one "stage.<name>" child span per stage, one
// PhaseStats entry per stage, and skeleton_* metrics labelled by backend.
// The spans are the only clock: each PhaseStats.Duration and Stats.Total
// is the duration its span's End returns. Backends that delegate to
// core.Extractor (the "bfskel" backend) do not use Run — the engine
// already emits exactly this shape itself.
type Run struct {
	backend string
	stats   *Stats
	metrics *obs.Registry
	root    *obs.Span
}

// NewRun opens the root span and the stats record for one extraction.
func NewRun(p Params, backend string, g *graph.Graph) *Run {
	return &Run{
		backend: backend,
		stats:   &Stats{},
		metrics: p.Metrics,
		root: p.Tracer.StartSpan("extract",
			obs.Str("backend", backend), obs.Int("nodes", g.N())),
	}
}

// Stage runs one named stage under a "stage.<name>" child span, recording
// its wall time as a PhaseStats entry and a per-stage histogram sample.
func (r *Run) Stage(name string, fn func() error) error {
	span := r.root.StartSpan("stage." + name)
	err := fn()
	var d time.Duration
	if err != nil {
		d = span.End(obs.Str("error", err.Error()))
	} else {
		d = span.End()
	}
	r.stats.Phases = append(r.stats.Phases, PhaseStats{Name: name, Duration: d})
	if m := r.metrics; m != nil {
		m.Histogram(obs.Label("skeleton_stage_seconds", "stage", r.backend+"."+name),
			obs.DurationBuckets).Observe(d.Seconds())
	}
	return err
}

// Hook adapts Stage to the func(name, fn) shape used by staged pipelines
// without error returns (mapax, casex, localsep).
func (r *Run) Hook() func(name string, fn func()) {
	return func(name string, fn func()) {
		r.Stage(name, func() error { fn(); return nil })
	}
}

// Finish closes the root span with the given end attributes and returns the
// completed stats.
func (r *Run) Finish(attrs ...obs.Attr) *Stats {
	r.stats.Total = r.root.End(attrs...)
	if m := r.metrics; m != nil {
		m.Counter(obs.Label("skeleton_extract_runs_total", "backend", r.backend)).Inc()
		m.Histogram(obs.Label("skeleton_extract_seconds", "backend", r.backend),
			obs.DurationBuckets).Observe(r.stats.Total.Seconds())
	}
	return r.stats
}

// Fail closes the root span with an error attribute; used when a stage or
// substrate resolution failed and no result will be produced.
func (r *Run) Fail(err error) {
	r.root.End(obs.Str("error", err.Error()))
	if m := r.metrics; m != nil {
		m.Counter(obs.Label("skeleton_extract_errors_total", "backend", r.backend)).Inc()
	}
}

// PhaseStats is the shared per-stage record (one entry of Stats.Phases).
type PhaseStats = core.PhaseStats
