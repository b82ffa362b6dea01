package bench

import (
	"maps"
	"path/filepath"
	"slices"
	"testing"
)

func loadSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := LoadSpec(filepath.Join("..", SpecFile))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at smoke-test sizes, untraced and traced,
// and checks that each reports every metric BENCHMARK.json declares for the
// mode, in the declared unit, without a failed operation.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			run, err := RunWorkload(w.Name, Config{Seed: 2, Seconds: 0.05, Trace: traced, Tiny: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if run.Failed != 0 || !run.Correct || run.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, run.Failed, run.Attempted, run.Failures)
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			for _, d := range declared {
				m, ok := run.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s in %s, declared %s", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if traced && len(run.Layers) == 0 {
				t.Errorf("%s: traced run produced no self-time table", w.Name)
			}
		}
	}
}

// TestSpecMatchesWorkloads keeps BENCHMARK.json and the workload table in
// step and the end-to-end bounds within the benchmark's rules: at most
// 0.25, and setup_s, whose spread is not gated, bounded the widest.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("BENCHMARK.json workloads %v, bfbench runs %v", declared, names)
	}
	setup := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s: bound %v outside (0, min(0.25, setup_s bound %v)]", m.Name, m.Bound, setup)
		}
	}
}

// TestSameSeedSameInputs: a seed fixes every generated input — the
// deployments, links and churn stream — and so every output digest, while
// another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	digests := func(seed int64) map[string]string {
		out := map[string]string{}
		for _, w := range Workloads {
			run, err := RunWorkload(w.Name, Config{Seed: seed, Tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range run.Digests {
				out[w.Name+"/"+k] = v
			}
		}
		return out
	}
	a, b := digests(5), digests(5)
	if !maps.Equal(a, b) {
		t.Errorf("seed 5 ran twice gave different outputs:\n%v\n%v", a, b)
	}
	c := digests(6)
	if c["churn-100k/warmup.digest"] == a["churn-100k/warmup.digest"] || c["paper-fields/window.digest"] == a["paper-fields/window.digest"] {
		t.Error("seeds 5 and 6 gave the same inputs")
	}

	v1, v2 := newVictims(9, 10, 1000), newVictims(9, 10, 1000)
	alive := func(int32) bool { return true }
	for i := 0; i < 5; i++ {
		if x, y := v1.next(alive), v2.next(alive); !slices.Equal(x, y) || len(x) != 10 {
			t.Fatalf("batch %d: %v vs %v", i, x, y)
		}
	}
}
