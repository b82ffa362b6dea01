package bfskel

import (
	"io"

	"bfskel/internal/core"
	"bfskel/internal/obs"
	"bfskel/internal/obshttp"
	"bfskel/internal/protocol"
)

// Re-exported observability types. A Tracer emits structured spans and
// events to a pluggable sink; a MetricsRegistry accumulates counters,
// gauges and histograms with JSON-snapshot and Prometheus-text exposition.
// Both are nil-safe throughout: a nil Tracer or MetricsRegistry on any API
// below records nothing and costs (nearly) nothing.
type (
	// Tracer assigns span IDs and fans records out to its sink.
	Tracer = obs.Tracer
	// Span is an in-flight traced operation; child spans and events hang
	// off it.
	Span = obs.Span
	// TraceRecord is one span-start, span-end or event record.
	TraceRecord = obs.Record
	// TraceAttr is one key/value attribute on a record.
	TraceAttr = obs.Attr
	// TraceSink receives the records a Tracer emits.
	TraceSink = obs.Sink
	// JSONLSink streams records as JSON lines to a writer.
	JSONLSink = obs.JSONLSink
	// RingSink keeps the last records in memory (tests, postmortems).
	RingSink = obs.RingSink
	// MetricsRegistry names and stores counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-marshalable registry dump.
	MetricsSnapshot = obs.Snapshot
	// FlightRecorder is a bounded ring of completed run records — the
	// recent-past introspection behind the /runs and /profile endpoints.
	FlightRecorder = obs.Recorder
	// RunRecord is one completed run retained by the flight recorder: run
	// ID, backend, params digest, span profile, metrics snapshot, wall
	// time.
	RunRecord = obs.RunRecord
	// FlightRecorderSink feeds a FlightRecorder from a tracer's records.
	FlightRecorderSink = obs.RecorderSink
	// TraceStream fans live trace records out to subscribers without
	// back-pressuring the traced hot path (the /trace substrate).
	TraceStream = obs.StreamSink
	// TraceSubscription is one live tap on a TraceStream.
	TraceSubscription = obs.Subscription
	// SpanProfile is a per-span-name count/total/self aggregation tree,
	// exportable as folded stacks for flamegraph tools.
	SpanProfile = obs.Profile
	// SpanProfileNode is one span call path of a SpanProfile.
	SpanProfileNode = obs.ProfileNode
	// ObsServer is a running live-observability HTTP endpoint (metrics,
	// runs, trace stream, span profile, pprof).
	ObsServer = obshttp.Server
	// ProtocolOptions configures an observed distributed protocol run.
	ProtocolOptions = protocol.Options
	// SimEngine selects the simnet round engine behind the protocol phases
	// (ProtocolOptions.Engine): the allocation-free parallel arena engine
	// (the zero value) or the serial reference loop. Outputs are
	// bit-identical.
	SimEngine = protocol.Engine
)

// Re-exported trace record kinds (TraceRecord.Kind).
const (
	TraceSpanStart = obs.KindSpanStart
	TraceSpanEnd   = obs.KindSpanEnd
	TraceEvent     = obs.KindEvent
)

// Round-engine selector values (ProtocolOptions.Engine); SimEngineParallel
// is the zero value, SimEngineSerial the reference engine kept for parity
// checks.
const (
	SimEngineParallel = protocol.EngineParallel
	SimEngineSerial   = protocol.EngineSerial
)

// NewTracer builds a tracer emitting to the given sink.
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// NewJSONLSink builds a buffered JSONL sink over w; call Flush (or Close,
// when w is also a closer) when the run is done.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewRingSink builds an in-memory sink retaining the last capacity records.
func NewRingSink(capacity int) *RingSink { return obs.NewRingSink(capacity) }

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewFlightRecorder builds a flight recorder retaining up to capacity
// completed runs (<= 0 means the default capacity).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewRecorder(capacity) }

// NewFlightRecorderSink builds a sink that groups a tracer's records into
// runs and records each completed run into rec; when metrics is non-nil
// every record carries a registry snapshot.
func NewFlightRecorderSink(rec *FlightRecorder, metrics *MetricsRegistry) *FlightRecorderSink {
	return obs.NewRecorderSink(rec, metrics)
}

// NewTraceStream builds a live fan-out sink with no subscribers.
func NewTraceStream() *TraceStream { return obs.NewStreamSink() }

// BuildSpanProfile aggregates a record slice (a parsed trace file, a ring
// sink's contents) into a span profile.
func BuildSpanProfile(recs []TraceRecord) *SpanProfile { return obs.BuildProfile(recs) }

// ParseTraceJSONL decodes one line previously written by a JSONLSink.
func ParseTraceJSONL(line []byte) (TraceRecord, error) { return obs.ParseJSONL(line) }

// EncodeTraceJSONL renders one record in the JSONL trace encoding (no
// trailing newline) — the inverse of ParseTraceJSONL.
func EncodeTraceJSONL(rec TraceRecord) ([]byte, error) { return obs.EncodeJSONL(rec) }

// ObsScope bundles the observability handles threaded through the library:
// a tracer for structured spans/events and a registry for metrics, plus —
// when built by NewLiveObsScope — the flight recorder and live trace
// stream the HTTP plane serves. The zero value is fully inert.
type ObsScope struct {
	Tracer  *Tracer
	Metrics *MetricsRegistry
	// Recorder retains recent completed runs for /runs and /profile; nil
	// unless wired (NewLiveObsScope wires it as a tracer sink).
	Recorder *FlightRecorder
	// Stream is the live /trace fan-out; nil unless wired.
	Stream *TraceStream
}

// NewLiveObsScope builds a fully live scope: a metrics registry, a flight
// recorder (runCapacity completed runs, <= 0 = default), a live trace
// stream, and a tracer fanning out to the recorder, the stream and any
// extra sinks (e.g. a JSONL file sink). Serve exposes the scope over HTTP.
func NewLiveObsScope(runCapacity int, extra ...TraceSink) ObsScope {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(runCapacity)
	stream := obs.NewStreamSink()
	sinks := obs.MultiSink{obs.NewRecorderSink(rec, reg), stream}
	for _, s := range extra {
		if s != nil {
			sinks = append(sinks, s)
		}
	}
	return ObsScope{
		Tracer:   obs.NewTracer(sinks),
		Metrics:  reg,
		Recorder: rec,
		Stream:   stream,
	}
}

// Serve exposes the scope's live observability plane over HTTP on addr
// (":0" picks a free port; query the returned server's Addr): Prometheus
// /metrics, flight-recorder /runs and /runs/{id}, the merged span /profile
// (JSON or folded flamegraph stacks), the live /trace stream, /healthz and
// net/http/pprof. Endpoints whose backing handle is nil serve empty
// responses, so a partially wired scope is fine. Close the server when
// done.
func (s ObsScope) Serve(addr string) (*ObsServer, error) {
	return obshttp.Serve(addr, obshttp.Options{
		Metrics:  s.Metrics,
		Recorder: s.Recorder,
		Stream:   s.Stream,
	})
}

// ExtractorObs returns a staged extraction engine bound to the network's
// graph with the scope's tracer and metrics attached: every Extract emits
// one span per stage plus guard/election/flood events, and accumulates
// bfskel_* metrics (the zero scope records nothing). The engine reuses its
// scratch pools across Extract calls (every returned Result stays
// independent of the engine), but is not safe for concurrent use — create
// one per goroutine.
func (n *Network) ExtractorObs(sc ObsScope) *Extractor {
	e := core.NewExtractor(n.Graph)
	e.Tracer, e.Metrics = sc.Tracer, sc.Metrics
	return e
}

// RunProtocolPhasesObs runs phases 1-2 as true message-passing node
// programs on the simulated network and reports transmissions and rounds;
// to match a centralized run, pass its effective radii (Result.EffectiveK /
// Result.EffectiveScope). opts controls jitter, the round engine and
// observability: tracing ("protocol" and "phase.<name>" spans with
// per-round events), metrics, per-round stats and per-node counters. The
// zero ProtocolOptions runs synchronously and unobserved.
func RunProtocolPhasesObs(net *Network, k, l, scope int, alpha int32, opts ProtocolOptions) (*DistributedResult, error) {
	return protocol.Run(net.Graph, k, l, scope, alpha, opts)
}
