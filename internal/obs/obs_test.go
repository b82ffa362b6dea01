package obs

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

func TestTracerSpanEventSequence(t *testing.T) {
	sink := NewRingSink(0)
	tr := NewTracer(sink)

	root := tr.StartSpan("extract", Int("nodes", 10))
	child := root.StartSpan("stage.identify")
	child.Event("election", Int("round", 1), Int("sites", 4))
	childDur := child.End(Int64("sweeps", 30))
	rootDur := root.End()

	recs := sink.Records()
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	wantKinds := []RecordKind{KindSpanStart, KindSpanStart, KindEvent, KindSpanEnd, KindSpanEnd}
	for i, k := range wantKinds {
		if recs[i].Kind != k {
			t.Errorf("record %d: kind %v, want %v", i, recs[i].Kind, k)
		}
	}
	if recs[0].ID != 1 || recs[0].Parent != 0 {
		t.Errorf("root span: id=%d parent=%d, want 1/0", recs[0].ID, recs[0].Parent)
	}
	if recs[1].ID != 2 || recs[1].Parent != 1 {
		t.Errorf("child span: id=%d parent=%d, want 2/1", recs[1].ID, recs[1].Parent)
	}
	if recs[2].Span != 2 || recs[2].Name != "election" {
		t.Errorf("event: span=%d name=%q, want 2/election", recs[2].Span, recs[2].Name)
	}
	if recs[3].Name != "stage.identify" {
		t.Errorf("span end carries name %q, want stage.identify", recs[3].Name)
	}
	if !root.Enabled() || !child.Enabled() {
		t.Error("spans of a non-nil tracer report !Enabled")
	}
	if childDur != recs[3].Dur || rootDur != recs[4].Dur {
		t.Errorf("End returned %v/%v, end records carry Dur %v/%v",
			childDur, rootDur, recs[3].Dur, recs[4].Dur)
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	// A nil tracer hands out untraced spans: they keep time but emit
	// nothing, and neither do their children.
	span := tr.StartSpan("x")
	if span == nil {
		t.Fatal("nil tracer produced a nil span")
	}
	if span.Enabled() {
		t.Error("span of a nil tracer reports enabled")
	}
	child := span.StartSpan("y")
	if child == nil || child.Enabled() {
		t.Errorf("child of an untraced span: %v, want non-nil and not enabled", child)
	}
	span.Event("e")
	if d := child.End(); d < 0 {
		t.Errorf("untraced child End = %v, want >= 0", d)
	}
	if d := span.End(); d < 0 {
		t.Errorf("untraced End = %v, want >= 0", d)
	}

	// A nil *Span stays valid and inert: none of these may panic.
	var nilSpan *Span
	if nilSpan.Enabled() {
		t.Error("nil span reports enabled")
	}
	nilSpan.Event("e")
	if d := nilSpan.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	if c := nilSpan.StartSpan("y"); c != nil {
		t.Error("nil span produced a non-nil child")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)

	s := tr.StartSpan("phase.voronoi", Int("sites", 7))
	s.Event("round", Int("round", 3), Int("messages", 42))
	s.End(Int("rounds", 9))
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	var recs []Record
	scan := bufio.NewScanner(&buf)
	for scan.Scan() {
		rec, err := ParseJSONL(scan.Bytes())
		if err != nil {
			t.Fatalf("parse %q: %v", scan.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Kind != KindSpanStart || recs[0].Name != "phase.voronoi" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Kind != KindEvent || recs[1].Span != recs[0].ID {
		t.Errorf("event not tied to span: %+v", recs[1])
	}
	var msgs float64 = -1
	for _, a := range recs[1].Attrs {
		if a.Key == "messages" {
			msgs = a.Val.(float64)
		}
	}
	if msgs != 42 {
		t.Errorf("messages attr = %v, want 42", msgs)
	}
	if recs[2].Kind != KindSpanEnd || recs[2].Dur <= 0 {
		t.Errorf("span end = %+v", recs[2])
	}
}

func TestRingSinkCapacity(t *testing.T) {
	sink := NewRingSink(2)
	tr := NewTracer(sink)
	for i := 0; i < 4; i++ {
		tr.StartSpan("s").End()
	}
	if got := len(sink.Records()); got != 2 {
		t.Fatalf("ring holds %d records, want 2", got)
	}
	if sink.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", sink.Dropped())
	}
}

func TestCanonExcludesTime(t *testing.T) {
	run := func() string {
		sink := NewRingSink(0)
		tr := NewTracer(sink)
		s := tr.StartSpan("extract", Int("n", 3))
		s.Event("guard.adjust", Str("kind", "scope"), Int("to", 2))
		s.End(Int("sites", 5))
		return sink.Canon()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("canonical traces differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "guard.adjust") || !strings.Contains(a, "kind=scope") {
		t.Errorf("canonical form lost content:\n%s", a)
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Counter("a_total").Inc()
	r.Gauge("g").Set(2.5)
	h := r.Histogram(Label("d_seconds", "stage", "identify"), []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	s := r.Snapshot()
	if s.Counters["a_total"] != 4 {
		t.Errorf("counter = %d, want 4", s.Counters["a_total"])
	}
	if s.Gauges["g"] != 2.5 {
		t.Errorf("gauge = %g, want 2.5", s.Gauges["g"])
	}
	hs := s.Histograms[`d_seconds{stage="identify"}`]
	if hs.Count != 3 || hs.Sum != 100.55 {
		t.Errorf("histogram count=%d sum=%g, want 3/100.55", hs.Count, hs.Sum)
	}
	// Cumulative buckets: <=0.1 holds 1, <=1 holds 2, <=10 holds 2.
	want := []int64{1, 2, 2}
	for i, bc := range hs.Buckets {
		if bc.Count != want[i] {
			t.Errorf("bucket le=%g count=%d, want %d", bc.LE, bc.Count, want[i])
		}
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", DurationBuckets).Observe(1)
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("bfskel_sim_messages_total").Add(12)
	r.Gauge("bfskel_sites").Set(31)
	r.Histogram(Label("bfskel_stage_seconds", "stage", "voronoi"), []float64{0.1, 1}).Observe(0.2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE bfskel_sim_messages_total counter",
		"bfskel_sim_messages_total 12",
		"# TYPE bfskel_sites gauge",
		"bfskel_sites 31",
		"# TYPE bfskel_stage_seconds histogram",
		`bfskel_stage_seconds_bucket{stage="voronoi",le="0.1"} 0`,
		`bfskel_stage_seconds_bucket{stage="voronoi",le="1"} 1`,
		`bfskel_stage_seconds_bucket{stage="voronoi",le="+Inf"} 1`,
		`bfskel_stage_seconds_sum{stage="voronoi"} 0.2`,
		`bfskel_stage_seconds_count{stage="voronoi"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// allocSink keeps the allocating buffer reachable so the compiler cannot
// drop the allocation the test measures.
var allocSink []byte

// TestSpanMeasureAllocs: a measuring span's end record carries at least
// the bytes allocated inside it, survives the JSONL round trip, and stays
// out of Canon; an untraced span measures nothing and stays inert.
func TestSpanMeasureAllocs(t *testing.T) {
	sink := NewRingSink(0)
	tr := NewTracer(sink)
	s := tr.StartSpan("stage.voronoi")
	s.MeasureAllocs()
	allocSink = make([]byte, 4<<20)
	s.End()
	end := sink.Records()[1]
	if end.AllocBytes < 4<<20 {
		t.Fatalf("AllocBytes = %d, want at least %d", end.AllocBytes, 4<<20)
	}
	line, err := EncodeJSONL(end)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSONL(line)
	if err != nil {
		t.Fatal(err)
	}
	if back.AllocBytes != end.AllocBytes {
		t.Fatalf("JSONL round trip: AllocBytes %d, want %d", back.AllocBytes, end.AllocBytes)
	}
	if strings.Contains(sink.Canon(), "alloc") {
		t.Fatalf("Canon carries the allocation tally:\n%s", sink.Canon())
	}
	// Without MeasureAllocs the end record reads 0, and an untraced span
	// ignores the call.
	plain := tr.StartSpan("stage.coarse")
	allocSink = make([]byte, 1<<20)
	plain.End()
	if got := sink.Records()[3].AllocBytes; got != 0 {
		t.Fatalf("unmeasured span: AllocBytes = %d", got)
	}
	var nilTracer *Tracer
	u := nilTracer.StartSpan("stage.refine")
	u.MeasureAllocs()
	if u.measure {
		t.Fatal("untraced span read the allocation counter")
	}
	u.End()
}
