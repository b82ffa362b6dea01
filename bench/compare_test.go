package bench

import "testing"

// set builds a result set of untraced runs, one per value, seeds 1..n.
func set(workload, metric, unit string, n1 bool, values ...float64) *ResultSet {
	rs := &ResultSet{Schema: ResultSchema}
	for i, v := range values {
		n := 50
		if n1 {
			n = 1
		}
		rs.Runs = append(rs.Runs, &Run{
			Workload: workload, Seed: int64(i + 1),
			Metrics: map[string]Metric{metric: {Value: v, Unit: unit, N: n}},
		})
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{
		EndToEnd: []SpecMetric{{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.05}},
		PerLayer: []SpecMetric{{Name: "core.homotopy_frac", Unit: "frac", Better: "higher"}},
	}
	base := []float64{100, 101, 99, 100, 100.5}
	cases := []struct {
		name    string
		a, b    *ResultSet
		verdict string
	}{
		{"within bound", set("w", "op_ms_p50", "ms", false, base...),
			set("w", "op_ms_p50", "ms", false, 102, 103, 101, 102, 102.5), Unchanged},
		{"slower beyond bound", set("w", "op_ms_p50", "ms", false, base...),
			set("w", "op_ms_p50", "ms", false, 110, 111, 109, 110, 110.5), Regressed},
		{"faster beyond bound", set("w", "op_ms_p50", "ms", false, base...),
			set("w", "op_ms_p50", "ms", false, 90, 91, 89, 90, 90.5), Improved},
		{"spread wider than bound", set("w", "op_ms_p50", "ms", false, 80, 120, 100, 90, 110),
			set("w", "op_ms_p50", "ms", false, 85, 125, 105, 95, 115), Unresolved},
		{"noisy but every run faster", set("w", "op_ms_p50", "ms", false, 80, 120, 100, 90, 110),
			set("w", "op_ms_p50", "ms", false, 40, 60, 50, 45, 55), Improved},
		{"exact count equal per seed", set("w", "protocol_messages", "count", true, 10, 20, 30),
			set("w", "protocol_messages", "count", true, 10, 20, 30), Unchanged},
		{"exact count up on one seed", set("w", "protocol_messages", "count", true, 10, 20, 30),
			set("w", "protocol_messages", "count", true, 10, 21, 30), Regressed},
		{"failures appear", set("w", "failed_frac", "frac", false, 0, 0, 0),
			set("w", "failed_frac", "frac", false, 0, 0.01, 0), Regressed},
	}
	for _, c := range cases {
		rows := Compare(c.a, c.b, spec)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, len(rows))
		}
		if rows[0].Verdict != c.verdict {
			t.Errorf("%s: verdict %s (delta %.3f, spread %.3f), want %s",
				c.name, rows[0].Verdict, rows[0].Delta, rows[0].Spread, c.verdict)
		}
	}

	// Per-layer timings and ratios carry no bound and are not gated.
	if rows := Compare(set("w", "core.identify_ms", "ms", false, 1, 2), set("w", "core.identify_ms", "ms", false, 9, 9), spec); len(rows) != 0 {
		t.Errorf("ungated per-layer timing produced %d rows", len(rows))
	}
	// Exact counts of sets with no seed in common cannot be paired.
	a := set("w", "protocol_messages", "count", true, 10)
	b := set("w", "protocol_messages", "count", true, 10)
	b.Runs[0].Seed = 7
	if rows := Compare(a, b, spec); rows[0].Verdict != Unresolved {
		t.Errorf("unpaired exact count: verdict %s, want %s", rows[0].Verdict, Unresolved)
	}
}

func TestWorseningDirection(t *testing.T) {
	if d := worsening(100, 110, true); d <= 0 {
		t.Errorf("lower-is-better metric rising: %v, want > 0", d)
	}
	if d := worsening(0.8, 0.9, false); d >= 0 {
		t.Errorf("higher-is-better metric rising: %v, want < 0", d)
	}
	if d := worsening(0, 0.1, true); d <= 0 {
		t.Errorf("rise from zero: %v, want > 0", d)
	}
}
