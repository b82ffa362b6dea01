package bfskel

import (
	"strings"
	"testing"
)

// traceOf runs one observed extraction plus one observed distributed
// protocol run on a freshly built network and returns the canonical
// (timestamp-free) trace.
func traceOf(t *testing.T, seed int64) string {
	t.Helper()
	net := testNetwork(t, "window", 800, 7, seed)
	ring := NewRingSink(0)
	ob := ObsScope{Tracer: NewTracer(ring)}
	res, err := net.ExtractorObs(ob).Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProtocolPhasesObs(net, res.EffectiveK, res.Params.L, res.EffectiveScope, res.Params.Alpha,
		ProtocolOptions{Tracer: ob.Tracer, RecordPerNode: true}); err != nil {
		t.Fatal(err)
	}
	return ring.Canon()
}

// TestTraceDeterminism pins the tracing determinism contract (mirroring
// determinism_test.go for results): with a fixed seed, two runs emit
// identical span/event sequences — same records, same order, same IDs, same
// attributes — up to the excluded wall-clock fields. This holds because
// events fire only from single-threaded orchestration points and parallel
// BFS work is aggregated into order-independent sums.
func TestTraceDeterminism(t *testing.T) {
	a, b := traceOf(t, 3), traceOf(t, 3)
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			t.Fatalf("traces diverge at record %d:\n  run1: %s\n  run2: %s", i, al[i], at(bl, i))
		}
	}
	t.Fatalf("trace lengths differ: %d vs %d records", len(al), len(bl))
}

func at(lines []string, i int) string {
	if i >= len(lines) {
		return "(missing)"
	}
	return lines[i]
}

// TestTraceContainsTaxonomy pins the documented span taxonomy end to end:
// a traced extraction + protocol run contains all five stage spans and all
// four phase spans (the same names CI's skeltrace -check requires).
func TestTraceContainsTaxonomy(t *testing.T) {
	trace := traceOf(t, 3)
	for _, name := range []string{
		"name=extract",
		"name=stage.identify", "name=stage.voronoi", "name=stage.coarse",
		"name=stage.refine", "name=stage.boundary",
		"name=protocol",
		"name=phase.neighborhood", "name=phase.centrality",
		"name=phase.election", "name=phase.voronoi",
		"name=round", "name=election", "name=floods",
	} {
		if !strings.Contains(trace, name) {
			t.Errorf("trace lacks %s", name)
		}
	}
}
