package bfskel

import (
	"strings"
	"testing"
	"time"
)

// spanEnds returns the Dur of every span-end record in emission order,
// keeping those whose name passes keep.
func spanEnds(ring *RingSink, keep func(name string) bool) (names []string, durs []time.Duration) {
	for _, rec := range ring.Records() {
		if rec.Kind == TraceSpanEnd && keep(rec.Name) {
			names = append(names, rec.Name)
			durs = append(durs, rec.Dur)
		}
	}
	return names, durs
}

// requireStatsAreSpans asserts that st's per-phase durations and total are
// exactly the Durs of the run's "stage.<name>" and "extract" end records.
func requireStatsAreSpans(t *testing.T, label string, ring *RingSink, st *Stats) {
	t.Helper()
	if st == nil {
		t.Fatalf("%s: nil stats", label)
	}
	names, durs := spanEnds(ring, func(name string) bool { return strings.HasPrefix(name, "stage.") })
	if len(names) != len(st.Phases) {
		t.Fatalf("%s: %d stage end records for %d phases", label, len(names), len(st.Phases))
	}
	for i, ph := range st.Phases {
		if names[i] != "stage."+ph.Name {
			t.Errorf("%s: end record %d is %q, phase is %q", label, i, names[i], ph.Name)
		}
		if ph.Duration != durs[i] {
			t.Errorf("%s: phase %q Duration %v, span Dur %v", label, ph.Name, ph.Duration, durs[i])
		}
	}
	_, roots := spanEnds(ring, func(name string) bool { return name == "extract" })
	if len(roots) != 1 {
		t.Fatalf("%s: %d extract end records, want 1", label, len(roots))
	}
	if st.Total != roots[0] {
		t.Errorf("%s: Total %v, extract span Dur %v", label, st.Total, roots[0])
	}
}

// TestStatsDurationsAreSpanDurations pins the one-clock contract: every
// reported duration is the duration of the span that brackets the same
// work, for the core engine, an incremental update and a backend measured
// through skeleton.Run. Untraced runs keep time through the same spans.
func TestStatsDurationsAreSpanDurations(t *testing.T) {
	net := testNetwork(t, "window", 900, 7, 1)
	p := DefaultParams()

	t.Run("core", func(t *testing.T) {
		ring := NewRingSink(0)
		res, err := net.ExtractorObs(ObsScope{Tracer: NewTracer(ring)}).Extract(p)
		if err != nil {
			t.Fatal(err)
		}
		requireStatsAreSpans(t, "core", ring, res.Stats)
	})

	t.Run("update", func(t *testing.T) {
		ring := NewRingSink(0)
		s, err := net.ChurnSessionObs(p, ObsScope{Tracer: NewTracer(ring)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Fail([]int32{3, 40})
		if err != nil {
			t.Fatal(err)
		}
		if u := s.LastUpdate(); u.Fallback {
			t.Fatalf("update fell back (%s); the subtest needs the incremental path", u.FallbackReason)
		}
		_, durs := spanEnds(ring, func(name string) bool { return name == "update" })
		if len(durs) != 1 {
			t.Fatalf("%d update end records, want 1", len(durs))
		}
		if got := s.LastUpdate().Duration; got != durs[0] {
			t.Errorf("UpdateStats.Duration %v, update span Dur %v", got, durs[0])
		}
		// The churn result's stats are the update run's: one phase per
		// update.<name> span, and the update span as the total.
		st := res.Stats
		if st.Total != durs[0] {
			t.Errorf("update result Total %v, update span Dur %v", st.Total, durs[0])
		}
		want := []string{"identify", "election", "voronoi", "coarse", "refine", "boundary"}
		names, stageDurs := spanEnds(ring, func(name string) bool { return strings.HasPrefix(name, "update.") })
		if len(st.Phases) != len(want) || len(names) != len(want) {
			t.Fatalf("update result has %d phases and the trace %d update.* end records, want %d each",
				len(st.Phases), len(names), len(want))
		}
		for i, ph := range st.Phases {
			if ph.Name != want[i] || names[i] != "update."+want[i] {
				t.Errorf("phase %d is %q with end record %q, want %q", i, ph.Name, names[i], want[i])
			}
			if ph.Duration != stageDurs[i] {
				t.Errorf("phase %q Duration %v, span Dur %v", ph.Name, ph.Duration, stageDurs[i])
			}
		}
		// Every update stage span carries the stage.* work attributes and
		// its measured allocations, which BytesAlloc reports.
		i := 0
		var allocs uint64
		for _, rec := range ring.Records() {
			if rec.Kind != TraceSpanEnd || !strings.HasPrefix(rec.Name, "update.") {
				continue
			}
			keys := map[string]bool{}
			for _, a := range rec.Attrs {
				keys[a.Key] = true
			}
			if !keys["sweeps"] || !keys["visited"] {
				t.Errorf("%s end record lacks sweeps/visited: %v", rec.Name, rec.Attrs)
			}
			if st.Phases[i].BytesAlloc != rec.AllocBytes {
				t.Errorf("phase %q BytesAlloc %d, span AllocBytes %d", st.Phases[i].Name, st.Phases[i].BytesAlloc, rec.AllocBytes)
			}
			allocs += rec.AllocBytes
			i++
		}
		if allocs == 0 {
			t.Error("update stage spans measured no allocations; the update allocates the result's per-node arrays")
		}
		if _, err := s.Restore([]int32{3, 40}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("map", func(t *testing.T) {
		ring := NewRingSink(0)
		_, st, err := ExtractBackend(net, "map", BackendParams{Tracer: NewTracer(ring)})
		if err != nil {
			t.Fatal(err)
		}
		requireStatsAreSpans(t, "map", ring, st)
	})

	t.Run("untraced", func(t *testing.T) {
		res, err := net.ExtractorObs(ObsScope{}).Extract(p)
		if err != nil {
			t.Fatal(err)
		}
		_, mapStats, err := ExtractBackend(net, "map", BackendParams{})
		if err != nil {
			t.Fatal(err)
		}
		for label, st := range map[string]*Stats{"core": res.Stats, "map": mapStats} {
			var sum time.Duration
			for _, ph := range st.Phases {
				if ph.Duration <= 0 {
					t.Errorf("%s: phase %q Duration %v, want > 0", label, ph.Name, ph.Duration)
				}
				sum += ph.Duration
			}
			if st.Total < sum {
				t.Errorf("%s: Total %v < sum of phases %v", label, st.Total, sum)
			}
		}
		s, err := net.ChurnSessionObs(p, ObsScope{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Fail([]int32{3}); err != nil {
			t.Fatal(err)
		}
		if d := s.LastUpdate().Duration; d <= 0 {
			t.Errorf("untraced UpdateStats.Duration %v, want > 0", d)
		}
	})
}
