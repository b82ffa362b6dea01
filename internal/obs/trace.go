// Package obs is the observability layer of the repository: a
// dependency-light structured tracer (spans and events over pluggable
// sinks) plus a metrics registry with snapshot and Prometheus-text
// exposition. Both substrates of the pipeline — the staged extraction
// engine in package core and the message-passing simulator in package
// simnet — emit into it, so one trace of a full distributed run yields a
// phase → round → node breakdown of where time, messages and BFS work go.
//
// Everything is nil-safe: a nil *Tracer produces untraced spans that keep
// time but emit nothing, and a nil *Registry hands out nil instruments whose
// methods no-op. A span is therefore the one clock of an instrumented run:
// Span.End returns the duration that Stats and bench rows report, whether
// or not the span's records go anywhere. Disabled observability costs one
// clock read per span boundary and a handful of nil checks, which keeps the
// instrumented hot paths within noise of the uninstrumented ones.
//
// Determinism contract: span IDs are assigned sequentially per Tracer and
// every record field except the wall-clock ones (Time, Dur) and the
// allocation tally (AllocBytes) is a pure function of the computation.
// Two runs over the same inputs emit identical record sequences up to
// timestamps — see Record.Canon and the trace determinism test.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// RecordKind discriminates the three record types a Tracer emits.
type RecordKind uint8

// Record kinds.
const (
	// KindSpanStart opens a span: ID, Parent, Name and Attrs are set.
	KindSpanStart RecordKind = iota + 1
	// KindSpanEnd closes a span: ID, Name, Dur and (optional) Attrs are set.
	KindSpanEnd
	// KindEvent is a point annotation inside a span: Span, Name, Attrs.
	KindEvent
)

// String names the kind as it appears in the JSONL encoding.
func (k RecordKind) String() string {
	switch k {
	case KindSpanStart:
		return "span"
	case KindSpanEnd:
		return "end"
	case KindEvent:
		return "event"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Attr is one key/value annotation. Attrs keep their declaration order in
// memory (and in Canon) so traces stay deterministic; only the JSON
// encoding sorts keys (a property of encoding/json maps).
type Attr struct {
	Key string
	Val any
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Val: v} }

// Int64 builds a 64-bit integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Val: v} }

// F64 builds a float attribute.
func F64(key string, v float64) Attr { return Attr{Key: key, Val: v} }

// Any builds an attribute holding an arbitrary JSON-marshalable value
// (e.g. a per-node counter slice).
func Any(key string, v any) Attr { return Attr{Key: key, Val: v} }

// Record is one emitted trace record. Time, Dur and AllocBytes are the
// only non-deterministic fields.
type Record struct {
	Kind   RecordKind
	ID     uint64 // span ID (span start/end)
	Parent uint64 // parent span ID (span start; 0 = root)
	Span   uint64 // enclosing span ID (events)
	Name   string
	Time   time.Time
	Dur    time.Duration // span end only
	// AllocBytes is the heap bytes the process allocated while the span
	// was open, on the end record of a span that measures them (see
	// Span.MeasureAllocs); 0 otherwise.
	AllocBytes uint64
	Attrs      []Attr
}

// Canon renders the record without its wall-clock and allocation fields,
// in attribute declaration order. Two runs of a deterministic computation
// produce equal Canon sequences; the trace determinism test compares
// exactly this.
func (r Record) Canon() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s id=%d parent=%d span=%d name=%s", r.Kind, r.ID, r.Parent, r.Span, r.Name)
	for _, a := range r.Attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Val)
	}
	return b.String()
}

// Sink receives records as the tracer emits them. Emit is called under the
// tracer's lock, so a Sink needs no synchronisation of its own; it must not
// retain the Attrs slice beyond the call unless it copies.
type Sink interface {
	Emit(r Record)
}

// Tracer emits structured spans and events to a sink. All methods are safe
// for concurrent use; a nil *Tracer is a valid disabled tracer.
type Tracer struct {
	mu     sync.Mutex
	sink   Sink
	nextID uint64
}

// NewTracer creates a tracer writing to sink.
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink}
}

// Enabled reports whether the tracer actually records.
func (t *Tracer) Enabled() bool { return t != nil }

// StartSpan opens a root span. On a nil tracer it returns an untraced span:
// it keeps time but emits nothing.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	return t.startSpan(0, name, attrs)
}

func (t *Tracer) startSpan(parent uint64, name string, attrs []Attr) *Span {
	now := time.Now() //lint:allow determinism Record.Time is wall-clock by contract; Canon strips it
	var id uint64
	if t != nil {
		t.mu.Lock()
		t.nextID++
		id = t.nextID
		t.sink.Emit(Record{Kind: KindSpanStart, ID: id, Parent: parent, Name: name, Time: now, Attrs: attrs})
		t.mu.Unlock()
	}
	return &Span{t: t, id: id, name: name, start: now}
}

func (t *Tracer) emit(r Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink.Emit(r)
	t.mu.Unlock()
}

// Span is one open span. A span opened from a nil tracer is untraced: it
// keeps time, so End still returns its duration, but emits nothing and
// reports !Enabled. A nil *Span is valid and inert (End returns 0), so
// callers never need to guard instrumentation sites.
type Span struct {
	t     *Tracer
	id    uint64
	name  string
	start time.Time
	// measure is set by MeasureAllocs; alloc0 is the heap allocation
	// counter it read, allocs the bytes End measured.
	measure bool
	alloc0  uint64
	allocs  uint64
}

// MeasureAllocs makes the span's end record carry the heap bytes allocated
// from now until End (Record.AllocBytes), read from runtime/metrics. Only
// an Enabled span reads them, so an untraced span stays one clock read.
func (s *Span) MeasureAllocs() {
	if s.Enabled() {
		s.measure, s.alloc0 = true, heapAllocs()
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// Enabled reports whether the span emits records, i.e. whether it was
// opened from a non-nil tracer. Guard attribute work that only a trace
// reads with it; an untraced span is not nil.
func (s *Span) Enabled() bool { return s != nil && s.t != nil }

// StartSpan opens a child span; the child of an untraced span is untraced.
func (s *Span) StartSpan(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(s.id, name, attrs)
}

// Event records a point annotation inside the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if !s.Enabled() {
		return
	}
	//lint:allow determinism Record.Time is wall-clock by contract; Canon strips it
	s.t.emit(Record{Kind: KindEvent, Span: s.id, Name: name, Time: time.Now(), Attrs: attrs})
}

// End closes the span, recording any final attributes, and returns its
// duration — the Dur of the end record when the span is traced. It returns
// 0 on a nil span.
func (s *Span) End(attrs ...Attr) time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now() //lint:allow determinism Record.Time/Dur are wall-clock by contract; Canon strips them
	d := now.Sub(s.start)
	if s.measure {
		s.allocs = heapAllocs() - s.alloc0
	}
	s.t.emit(Record{Kind: KindSpanEnd, ID: s.id, Name: s.name, Time: now, Dur: d, AllocBytes: s.allocs, Attrs: attrs})
	return d
}

// Allocs returns the heap bytes allocated while the span was open, the
// AllocBytes of its end record: 0 before End, on a nil or untraced span,
// and on a span that does not measure them.
func (s *Span) Allocs() uint64 {
	if s == nil {
		return 0
	}
	return s.allocs
}

// RingSink keeps the last N records in memory — the test and debugging
// sink. It copies attribute slices, so records stay valid after Emit
// returns.
type RingSink struct {
	cap     int
	records []Record
	dropped int
}

// NewRingSink creates a ring sink holding up to capacity records
// (capacity <= 0 means unbounded).
func NewRingSink(capacity int) *RingSink {
	return &RingSink{cap: capacity}
}

// Emit implements Sink.
func (r *RingSink) Emit(rec Record) {
	if len(rec.Attrs) > 0 {
		rec.Attrs = append([]Attr(nil), rec.Attrs...)
	}
	if r.cap > 0 && len(r.records) == r.cap {
		copy(r.records, r.records[1:])
		r.records[len(r.records)-1] = rec
		r.dropped++
		return
	}
	r.records = append(r.records, rec)
}

// Records returns the retained records, oldest first. The slice is owned by
// the sink; callers must not mutate it while tracing continues.
func (r *RingSink) Records() []Record { return r.records }

// Dropped returns how many records were evicted by the capacity bound.
func (r *RingSink) Dropped() int { return r.dropped }

// Canon renders every retained record's canonical (timestamp-free) form,
// one per line — the comparable form for determinism tests.
func (r *RingSink) Canon() string {
	var b strings.Builder
	for _, rec := range r.records {
		b.WriteString(rec.Canon())
		b.WriteByte('\n')
	}
	return b.String()
}

// jsonRecord is the JSONL wire form of a Record.
type jsonRecord struct {
	Kind   string         `json:"kind"`
	ID     uint64         `json:"id,omitempty"`
	Parent uint64         `json:"parent,omitempty"`
	Span   uint64         `json:"span,omitempty"`
	Name   string         `json:"name"`
	TS     int64          `json:"ts_us"`
	DurNS  int64          `json:"dur_ns,omitempty"`
	Alloc  uint64         `json:"alloc_bytes,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// JSONLSink streams records as one JSON object per line. Writes are
// buffered; call Flush (or Close) before reading the output. The first
// write error is retained and reported by Err/Close, so emit sites stay
// error-free.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer // underlying closer, if any
	err error
}

// NewJSONLSink creates a JSONL sink over w. If w is an io.Closer, Close
// closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink. A nil *JSONLSink is inert, so an optional trace
// file can be wired unconditionally into a fan-out.
func (s *JSONLSink) Emit(rec Record) {
	if s == nil || s.err != nil {
		return
	}
	data, err := EncodeJSONL(rec)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		s.err = err
	}
}

// EncodeJSONL renders one record in the JSONL wire encoding (without the
// trailing newline) — the inverse of ParseJSONL. The live /trace endpoint
// and the JSONLSink share this encoding, so a streamed trace and a -trace
// file are interchangeable inputs to cmd/skeltrace.
func EncodeJSONL(rec Record) ([]byte, error) {
	out := jsonRecord{
		Kind:   rec.Kind.String(),
		ID:     rec.ID,
		Parent: rec.Parent,
		Span:   rec.Span,
		Name:   rec.Name,
		TS:     rec.Time.UnixMicro(),
		DurNS:  rec.Dur.Nanoseconds(),
		Alloc:  rec.AllocBytes,
	}
	if len(rec.Attrs) > 0 {
		out.Attrs = make(map[string]any, len(rec.Attrs))
		for _, a := range rec.Attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	return json.Marshal(out)
}

// Flush drains the write buffer.
func (s *JSONLSink) Flush() error {
	if s == nil {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Err returns the first write or encoding error, if any.
func (s *JSONLSink) Err() error {
	if s == nil {
		return nil
	}
	return s.err
}

// Close flushes and closes the underlying writer (when closable).
func (s *JSONLSink) Close() error {
	if s == nil {
		return nil
	}
	flushErr := s.Flush()
	if s.c != nil {
		if err := s.c.Close(); flushErr == nil {
			flushErr = err
		}
	}
	return flushErr
}

// MultiSink fans records out to several sinks.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(rec Record) {
	for _, s := range m {
		s.Emit(rec)
	}
}

// ParseJSONL decodes one line of the JSONL encoding back into a Record.
// Attribute order is not preserved (JSON objects are unordered); keys come
// back sorted. Numeric attribute values decode as float64, per
// encoding/json.
func ParseJSONL(line []byte) (Record, error) {
	var in jsonRecord
	if err := json.Unmarshal(line, &in); err != nil {
		return Record{}, err
	}
	rec := Record{
		ID:         in.ID,
		Parent:     in.Parent,
		Span:       in.Span,
		Name:       in.Name,
		Time:       time.UnixMicro(in.TS),
		Dur:        time.Duration(in.DurNS),
		AllocBytes: in.Alloc,
	}
	switch in.Kind {
	case "span":
		rec.Kind = KindSpanStart
	case "end":
		rec.Kind = KindSpanEnd
	case "event":
		rec.Kind = KindEvent
	default:
		return Record{}, fmt.Errorf("obs: unknown record kind %q", in.Kind)
	}
	if len(in.Attrs) > 0 {
		keys := make([]string, 0, len(in.Attrs))
		for k := range in.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rec.Attrs = make([]Attr, 0, len(keys))
		for _, k := range keys {
			rec.Attrs = append(rec.Attrs, Attr{Key: k, Val: in.Attrs[k]})
		}
	}
	return rec, nil
}
