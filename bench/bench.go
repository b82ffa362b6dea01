// Package bench is the repository's benchmark: four closed-loop workloads
// over the public skeleton-extraction API, each timing its operations,
// checking their outputs, and attributing the time to the layers beneath
// (network build, flood kernels, pipeline stages, incremental repair, the
// simulated protocol, the Go runtime). cmd/bfbench runs it; README.md
// explains the workloads and the metric-to-layer map.
package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// Config selects one workload run.
type Config struct {
	Seed int64
	// Seconds is the measurement window: timed operations keep starting
	// until it closes (each workload runs a small minimum regardless).
	Seconds float64
	// Trace runs the layer attribution: spans around every layer call,
	// standalone re-executions of the build steps and flood kernels, and the
	// tracing-overhead comparison. End-to-end figures come from untraced
	// runs.
	Trace bool
	// TracePath, when set on a traced run, receives the spans as JSON lines.
	TracePath string
	// Tiny shrinks every workload to smoke-test sizes (hundreds to a few
	// thousand nodes, one setup repetition).
	Tiny bool
}

// Run is the outcome of one workload run.
type Run struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Digests   map[string]string `json:"digests,omitempty"`
	Layers    []LayerRow        `json:"layers,omitempty"`
	Header    Header            `json:"header"`
}

// goldenFile holds the seed-1 output digests, per workload and key.
//
//go:embed golden/seed1.json
var goldenFile []byte

// goldenDigests returns the seed-1 digests of a workload.
func goldenDigests(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenFile, &all); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return all[workload], nil
}

// RunWorkload runs one workload in this process.
func RunWorkload(name string, cfg Config) (*Run, error) {
	w, ok := WorkloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var golden map[string]string
	if cfg.Seed == 1 && !cfg.Tiny {
		var err error
		if golden, err = goldenDigests(name); err != nil {
			return nil, err
		}
	}
	r, err := newRecorder(cfg, golden)
	if err != nil {
		return nil, err
	}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.calib.measure() // the last operations' after-reference
	run := &Run{Workload: name, Seed: cfg.Seed, Trace: cfg.Trace, Digests: r.digests, Header: newHeader(cfg.Seed)}
	if r.tracer != nil {
		r.finishTrace()
		recs := r.ring.Records()
		run.Layers = selfTimes(recs)
		if cfg.TracePath != "" {
			if err := writeTrace(cfg.TracePath, recs); err != nil {
				return nil, err
			}
		}
	}
	run.Metrics = r.summarize(w.Op)
	run.Attempted, run.Failed, run.Failures = r.attempted, r.failed, r.failures
	run.Correct = r.failed == 0
	return run, nil
}
