package bfskel

import (
	"strings"
	"testing"
)

// TestBackendsEmitUniformSpanShape pins the observability contract: every
// backend emits one root "extract" span (attribute backend=<name>) whose
// children are "stage.<name>" spans — the same shape the core engine
// established, now uniform across the registry.
func TestBackendsEmitUniformSpanShape(t *testing.T) {
	net := testNetwork(t, "window", 1200, 6.5, 1)
	for _, name := range []string{"bfskel", "map", "case", "localsep"} {
		sink := NewRingSink(0)
		_, _, err := ExtractBackend(net, name, BackendParams{Tracer: NewTracer(sink)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var roots, stages, other int
		for _, rec := range sink.Records() {
			if rec.Kind != TraceSpanStart {
				continue
			}
			switch {
			case rec.Name == "extract" && rec.Parent == 0:
				roots++
			case strings.HasPrefix(rec.Name, "stage."):
				stages++
			default:
				other++
			}
		}
		if roots != 1 {
			t.Errorf("%s: want exactly one root extract span, got %d", name, roots)
		}
		if stages == 0 {
			t.Errorf("%s: no stage.* child spans", name)
		}
		if other > 0 {
			t.Errorf("%s: %d spans outside the extract/stage.* shape", name, other)
		}
	}
}

// TestBackendsRegistered pins the registry contract: importing the facade
// links every built-in backend, visible in deterministic order.
func TestBackendsRegistered(t *testing.T) {
	got := Backends()
	want := []string{"bfskel", "case", "localsep", "map"}
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("backend %q not registered (got %v)", name, got)
		}
	}
	if len(got) < 4 {
		t.Errorf("want >= 4 backends, got %v", got)
	}
}

// TestBfskelBackendBitIdentical pins the tentpole's no-regression property:
// the "bfskel" backend is a pure wrapper, producing a Result bit-identical
// to a direct core engine run with the same parameters.
func TestBfskelBackendBitIdentical(t *testing.T) {
	net := testNetwork(t, "twoholes", 1500, 7.0, 1)
	direct, err := net.ExtractorObs(ObsScope{}).Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := ExtractBackend(net, "bfskel", BackendParams{Core: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core == nil {
		t.Fatal("bfskel backend did not attach the native core result")
	}
	if got, want := fingerprint(res.Core), fingerprint(direct); got != want {
		t.Error("bfskel backend result differs from a direct core.Extractor run")
	}
	if stats == nil || stats != res.Stats {
		t.Error("returned Stats must alias Result.Stats")
	}
	if len(res.Nodes) != res.Skeleton.NumNodes() {
		t.Errorf("Nodes has %d entries, skeleton %d", len(res.Nodes), res.Skeleton.NumNodes())
	}
}

// TestCrossBackendScorecard runs the full backend matrix over the figure-8
// and spiral fields through the shared quality harness and sanity-checks
// every cell.
func TestCrossBackendScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("scorecard matrix in -short mode")
	}
	scenarios := []ScorecardScenario{
		{Name: "twoholes", Spec: NetworkSpec{Shape: MustShape("twoholes"), N: 1200, TargetDeg: 6.79, Seed: 1, Layout: LayoutGrid}},
		{Name: "spiral", Spec: NetworkSpec{Shape: MustShape("spiral"), N: 1200, TargetDeg: 9.6, Seed: 1, Layout: LayoutGrid}},
	}
	backends := []string{"bfskel", "map", "case", "localsep"}
	card, err := RunScorecard(scenarios, backends, ObsScope{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(scenarios) * len(backends); len(card.Scores) != want {
		t.Fatalf("want %d scores, got %d", want, len(card.Scores))
	}
	for _, s := range card.Scores {
		if s.Err != "" {
			t.Errorf("%s/%s failed: %s", s.Backend, s.Scenario, s.Err)
			continue
		}
		if s.Nodes == 0 {
			t.Errorf("%s/%s produced an empty skeleton", s.Backend, s.Scenario)
		}
		if s.MsPerOp <= 0 {
			t.Errorf("%s/%s has no cost measurement", s.Backend, s.Scenario)
		}
		if s.ClearanceRatio <= 0 {
			t.Errorf("%s/%s has no clearance ratio", s.Backend, s.Scenario)
		}
		if s.Backend == "bfskel" {
			if !s.HomotopyOK {
				t.Errorf("bfskel/%s lost homotopy: cycles=%d holes=%d comps=%d",
					s.Scenario, s.CycleRank, s.Holes, s.Components)
			}
			if s.MeanDistToRef != 0 || s.HausdorffToRef != 0 {
				t.Errorf("bfskel/%s should be at distance 0 from itself, got %v/%v",
					s.Scenario, s.MeanDistToRef, s.HausdorffToRef)
			}
		}
	}
}

// TestExtractBatchBackendRouting pins the batch path's per-item backend
// selection: empty means bfskel (bit-identical to the core pipeline), and
// baseline backends come back as synthesized core Results carrying their
// skeleton and stats.
func TestExtractBatchBackendRouting(t *testing.T) {
	net := testNetwork(t, "window", 1200, 6.5, 1)
	items := []BatchItem{
		{Network: net, Params: DefaultParams()},
		{Network: net, Params: DefaultParams(), Backend: "map"},
		{Network: net, Params: DefaultParams(), Backend: "localsep"},
	}
	results, err := ExtractBatch(items, ObsScope{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("want %d results, got %d", len(items), len(results))
	}
	direct, err := net.ExtractorObs(ObsScope{}).Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(results[0]), fingerprint(direct); got != want {
		t.Error("default-backend batch item differs from a direct core run")
	}
	for i, r := range results {
		if r.Skeleton == nil || r.Skeleton.NumNodes() == 0 {
			t.Errorf("item %d (%q): empty skeleton", i, items[i].Backend)
		}
		if r.Stats == nil || len(r.Stats.Phases) == 0 {
			t.Errorf("item %d (%q): missing stage stats", i, items[i].Backend)
		}
	}

	if _, err := ExtractBatch([]BatchItem{{Network: net, Backend: "nope"}}, ObsScope{}); err == nil {
		t.Error("unknown backend name did not error")
	}
}
