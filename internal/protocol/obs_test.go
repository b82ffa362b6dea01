package protocol

import (
	"strings"
	"testing"

	"bfskel/internal/obs"
)

// TestRunObservability pins the observed protocol run: every phase's
// "round" events (one per round including Init) carry message counts that
// sum to its Stats.Messages, the per-node send counters do too, and the
// trace contains the "protocol" root span plus one
// "phase.<name>" child span per phase, each carrying round events and the
// exact message/round totals.
func TestRunObservability(t *testing.T) {
	g := pathGraph(24)
	ring := obs.NewRingSink(0)
	reg := obs.NewRegistry()
	res, err := Run(g, 2, 2, 2, 1, Options{
		Tracer:        obs.NewTracer(ring),
		Metrics:       reg,
		RecordPerNode: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Round events per phase span, by the span's name.
	spanName := make(map[uint64]string)
	rounds := make(map[string]int)
	roundMsgs := make(map[string]int)
	for _, rec := range ring.Records() {
		switch {
		case rec.Kind == obs.KindSpanStart:
			spanName[rec.ID] = rec.Name
		case rec.Kind == obs.KindEvent && rec.Name == "round":
			name := spanName[rec.Span]
			rounds[name]++
			for _, a := range rec.Attrs {
				if a.Key == "messages" {
					roundMsgs[name] += a.Val.(int)
				}
			}
		}
	}
	for i, st := range res.PhaseStats {
		name := PhaseNames[i]
		if got := rounds["phase."+name]; got != st.Rounds+1 {
			t.Errorf("%s: %d round events for %d rounds", name, got, st.Rounds)
		}
		if msgs := roundMsgs["phase."+name]; msgs != st.Messages {
			t.Errorf("%s: per-round messages sum to %d, Stats.Messages = %d", name, msgs, st.Messages)
		}
		sent := 0
		for _, s := range st.NodeSent {
			sent += s
		}
		if sent != st.Messages {
			t.Errorf("%s: NodeSent sums to %d, Stats.Messages = %d", name, sent, st.Messages)
		}
	}

	// Span taxonomy: one protocol root, one span per phase, ended with the
	// phase's exact totals.
	starts := make(map[string]int)
	endAttrs := make(map[string]map[string]any)
	for _, rec := range ring.Records() {
		switch rec.Kind {
		case obs.KindSpanStart:
			starts[rec.Name]++
		case obs.KindSpanEnd:
			attrs := make(map[string]any, len(rec.Attrs))
			for _, a := range rec.Attrs {
				attrs[a.Key] = a.Val
			}
			endAttrs[rec.Name] = attrs
		}
	}
	if starts["protocol"] != 1 {
		t.Errorf("protocol spans = %d, want 1", starts["protocol"])
	}
	for i, name := range PhaseNames {
		span := "phase." + name
		if starts[span] != 1 {
			t.Errorf("%s spans = %d, want 1", span, starts[span])
		}
		if got := endAttrs[span]["messages"]; got != res.PhaseStats[i].Messages {
			t.Errorf("%s end messages = %v, want %d", span, got, res.PhaseStats[i].Messages)
		}
		if got := endAttrs[span]["rounds"]; got != res.PhaseStats[i].Rounds {
			t.Errorf("%s end rounds = %v, want %d", span, got, res.PhaseStats[i].Rounds)
		}
	}

	// Metrics: the per-phase message counters mirror the stats.
	snap := reg.Snapshot()
	for i, name := range PhaseNames {
		key := obs.Label("bfskel_protocol_messages_total", "phase", name)
		if got := snap.Counters[key]; got != int64(res.PhaseStats[i].Messages) {
			t.Errorf("%s = %d, want %d", key, got, res.PhaseStats[i].Messages)
		}
	}
}

// TestRunObservationReadOnly pins that observation is read-only: an
// instrumented run returns the same outputs and message/round totals as a
// plain one.
func TestRunObservationReadOnly(t *testing.T) {
	g := pathGraph(24)
	plain, err := Run(g, 2, 2, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(g, 2, 2, 2, 1, Options{
		Tracer:        obs.NewTracer(obs.NewRingSink(0)),
		RecordPerNode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Sites) != len(observed.Sites) {
		t.Fatalf("sites differ: %v vs %v", plain.Sites, observed.Sites)
	}
	for i := range plain.PhaseStats {
		p, o := plain.PhaseStats[i], observed.PhaseStats[i]
		if p.Messages != o.Messages || p.Rounds != o.Rounds {
			t.Errorf("%s: plain %d msgs/%d rounds, observed %d/%d",
				PhaseNames[i], p.Messages, p.Rounds, o.Messages, o.Rounds)
		}
	}
	if plain.TotalMessages() != observed.TotalMessages() {
		t.Errorf("total messages differ: %d vs %d", plain.TotalMessages(), observed.TotalMessages())
	}
}

// TestPhaseNamesMatchSpans keeps the PhaseNames list aligned with the span
// naming convention cmd/skeltrace greps for.
func TestPhaseNamesMatchSpans(t *testing.T) {
	for _, name := range PhaseNames {
		if strings.ContainsAny(name, " .") {
			t.Errorf("phase name %q would produce an ambiguous span name", name)
		}
	}
}
