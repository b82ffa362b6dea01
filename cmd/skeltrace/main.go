// Command skeltrace summarizes a JSONL trace emitted by skelextract or
// skelbench (-trace): per-span duration statistics (with the mean heap
// allocation of spans that measure it: extraction stages and churn
// updates), the round-by-round message curve of every distributed protocol
// phase, and the hottest nodes by per-node send/receive counters.
//
// Usage:
//
//	skeltrace trace.jsonl
//	skeltrace -top 10 trace.jsonl
//	skeltrace -folded trace.jsonl > stacks.folded   # flamegraph.pl / inferno input
//	skeltrace -check -require-stages identify,voronoi,coarse,refine,boundary \
//	    -require-phases neighborhood,centrality,election,voronoi trace.jsonl
//	skeltrace -check -require-stages identify,update.identify,update.voronoi churn.jsonl
//
// With -folded the command emits the trace's span-aggregation profile as
// folded stacks (one "root;child;leaf self-microseconds" line per call
// path), the input format of flamegraph.pl, inferno and speedscope — the
// same output the live /profile?format=folded endpoint serves.
//
// With -check the command validates the trace instead of describing it: it
// must be non-empty and fully parseable, every required stage/phase span
// must be present (a required stage containing a dot, such as
// update.voronoi, names its span verbatim; any other names stage.<name>),
// every span must end no later than its parent, the direct children of a
// span must last no longer than it in total, and each protocol phase's
// per-round message counts must sum to the phase span's total. Any
// violation exits non-zero — CI runs this against freshly emitted traces.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bfskel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "skeltrace:", err)
		os.Exit(1)
	}
}

// span is one reconstructed span: its start/end records plus the events
// that fired inside it.
type span struct {
	id      uint64
	parent  uint64 // 0 for a root span
	name    string
	dur     time.Duration
	endAt   time.Time
	alloc   uint64 // heap bytes allocated inside the span, when measured
	ended   bool
	end     map[string]any // end-record attributes
	rounds  []roundEvent
	sent    []float64 // per-node sends ("nodes" event)
	recv    []float64
	elected int // "election" events (extract spans)
	guards  int // "guard.adjust" events
}

// roundEvent is one simnet "round" event.
type roundEvent struct {
	round, messages, deliveries, active int
}

// trace is the fully parsed file.
type trace struct {
	records int
	events  int
	spans   map[uint64]*span
	order   []uint64 // span IDs in start order
	// spanRecs retains the raw span start/end records (events are skipped:
	// they carry the bulky per-node arrays and profiles ignore them) so
	// -folded can rebuild the span-aggregation profile.
	spanRecs []bfskel.TraceRecord
}

func run() error {
	var (
		topK      = flag.Int("top", 5, "how many hottest nodes to list")
		check     = flag.Bool("check", false, "validate the trace instead of summarizing; exit non-zero on failure")
		folded    = flag.Bool("folded", false, "emit the span profile as folded stacks (flamegraph input) instead of summarizing")
		reqStages = flag.String("require-stages", "", "comma-separated stage names that must appear as stage.<name> spans, or verbatim when they contain a dot (-check)")
		reqPhases = flag.String("require-phases", "", "comma-separated phase names that must appear as phase.<name> spans (-check)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: skeltrace [flags] trace.jsonl")
	}

	tr, err := parseFile(flag.Arg(0))
	if err != nil {
		return err
	}
	if *check {
		return validate(tr, splitNames(*reqStages), splitNames(*reqPhases))
	}
	if *folded {
		return bfskel.BuildSpanProfile(tr.spanRecs).WriteFolded(os.Stdout)
	}
	summarize(tr, *topK)
	return nil
}

// parseFile reads and reconstructs a JSONL trace.
func parseFile(path string) (*trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	tr := &trace{spans: make(map[uint64]*span)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // "nodes" events carry whole per-node arrays
	line := 0
	for sc.Scan() {
		line++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		rec, err := bfskel.ParseTraceJSONL(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		tr.records++
		attrs := attrMap(rec.Attrs)
		switch rec.Kind {
		case bfskel.TraceSpanStart:
			tr.spans[rec.ID] = &span{id: rec.ID, parent: rec.Parent, name: rec.Name}
			tr.order = append(tr.order, rec.ID)
			tr.spanRecs = append(tr.spanRecs, rec)
		case bfskel.TraceSpanEnd:
			tr.spanRecs = append(tr.spanRecs, rec)
			sp := tr.spans[rec.ID]
			if sp == nil { // end without start: tolerate, spans parse standalone
				sp = &span{id: rec.ID, name: rec.Name}
				tr.spans[rec.ID] = sp
				tr.order = append(tr.order, rec.ID)
			}
			sp.ended, sp.dur, sp.alloc, sp.end, sp.endAt = true, rec.Dur, rec.AllocBytes, attrs, rec.Time
		case bfskel.TraceEvent:
			tr.events++
			sp := tr.spans[rec.Span]
			if sp == nil {
				continue
			}
			switch rec.Name {
			case "round":
				sp.rounds = append(sp.rounds, roundEvent{
					round:      num(attrs, "round"),
					messages:   num(attrs, "messages"),
					deliveries: num(attrs, "deliveries"),
					active:     num(attrs, "active"),
				})
			case "nodes":
				sp.sent = floats(attrs["sent"])
				sp.recv = floats(attrs["recv"])
			case "election":
				sp.elected++
			case "guard.adjust":
				sp.guards++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// attrMap flattens parsed attributes for keyed lookup.
func attrMap(attrs []bfskel.TraceAttr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// num reads an integer-valued attribute (JSON numbers decode as float64).
func num(m map[string]any, key string) int {
	if v, ok := m[key].(float64); ok {
		return int(v)
	}
	return 0
}

// floats coerces a decoded JSON array into a float slice.
func floats(v any) []float64 {
	arr, ok := v.([]any)
	if !ok {
		return nil
	}
	out := make([]float64, 0, len(arr))
	for _, e := range arr {
		f, _ := e.(float64)
		out = append(out, f)
	}
	return out
}

func splitNames(csv string) []string {
	if csv == "" {
		return nil
	}
	var names []string
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// durStats aggregates the durations of same-named spans.
type durStats struct {
	count              int
	total, min, max    time.Duration
	rounds, messages   int
	hasRounds, hasMsgs bool
	alloc              uint64 // summed AllocBytes of the measured spans
	allocN             int    // spans that carried AllocBytes
}

func summarize(tr *trace, topK int) {
	fmt.Printf("trace: %d records, %d spans, %d events\n", tr.records, len(tr.spans), tr.events)
	if len(tr.spans) == 0 {
		return
	}

	// Per-name duration table.
	byName := make(map[string]*durStats)
	var names []string
	for _, id := range tr.order {
		sp := tr.spans[id]
		if !sp.ended {
			continue
		}
		st := byName[sp.name]
		if st == nil {
			st = &durStats{min: sp.dur, max: sp.dur}
			byName[sp.name] = st
			names = append(names, sp.name)
		}
		st.count++
		st.total += sp.dur
		if sp.dur < st.min {
			st.min = sp.dur
		}
		if sp.dur > st.max {
			st.max = sp.dur
		}
		if sp.alloc > 0 {
			st.alloc += sp.alloc
			st.allocN++
		}
		if v, ok := sp.end["rounds"]; ok {
			st.rounds += int(v.(float64))
			st.hasRounds = true
		}
		if v, ok := sp.end["messages"]; ok {
			st.messages += int(v.(float64))
			st.hasMsgs = true
		}
	}
	sort.Strings(names)
	fmt.Println("\nspan durations:")
	for _, name := range names {
		st := byName[name]
		avg := st.total / time.Duration(st.count)
		line := fmt.Sprintf("  %-22s n=%-3d total=%-12s min=%-12s avg=%-12s max=%s",
			name, st.count, round(st.total), round(st.min), round(avg), round(st.max))
		if st.hasMsgs {
			line += fmt.Sprintf("  messages=%d", st.messages)
		}
		if st.hasRounds {
			line += fmt.Sprintf(" rounds=%d", st.rounds)
		}
		if st.allocN > 0 {
			line += fmt.Sprintf("  alloc avg=%.1fMiB", float64(st.alloc)/float64(st.allocN)/(1<<20))
		}
		fmt.Println(line)
	}

	// Round-by-round message curve of every protocol phase instance.
	printed := false
	for _, id := range tr.order {
		sp := tr.spans[id]
		if !strings.HasPrefix(sp.name, "phase.") || len(sp.rounds) == 0 {
			continue
		}
		if !printed {
			fmt.Println("\nper-phase message curve (messages per round, round 0 = init):")
			printed = true
		}
		total := 0
		curve := make([]string, 0, len(sp.rounds))
		for _, r := range sp.rounds {
			total += r.messages
			if len(curve) < 24 {
				curve = append(curve, fmt.Sprintf("%d", r.messages))
			}
		}
		ell := ""
		if len(sp.rounds) > 24 {
			ell = " …"
		}
		eng := ""
		if e, ok := sp.end["engine"].(string); ok && e != "" {
			eng = " engine=" + e
		}
		fmt.Printf("  %-22s #%-4d rounds=%-4d messages=%-7d%s curve: %s%s\n",
			sp.name, sp.id, len(sp.rounds)-1, total, eng, strings.Join(curve, " "), ell)
	}

	// Hottest nodes over all per-node counter events. Walk spans in start
	// order (tr.order), not map order, so the tallies — and therefore the
	// report — are identical across runs; grow each tally to its own
	// length so neither one silently drops the other's tail.
	var sent, recv []float64
	for _, id := range tr.order {
		sp := tr.spans[id]
		for i, v := range sp.sent {
			if i >= len(sent) {
				sent = append(sent, make([]float64, i+1-len(sent))...)
			}
			sent[i] += v
		}
		for i, v := range sp.recv {
			if i >= len(recv) {
				recv = append(recv, make([]float64, i+1-len(recv))...)
			}
			recv[i] += v
		}
	}
	if len(recv) < len(sent) {
		recv = append(recv, make([]float64, len(sent)-len(recv))...)
	} else if len(sent) < len(recv) {
		sent = append(sent, make([]float64, len(recv)-len(sent))...)
	}
	if len(sent) > 0 && topK > 0 {
		type hot struct {
			node int
			load float64
		}
		hots := make([]hot, len(sent))
		for i := range sent {
			hots[i] = hot{node: i, load: sent[i] + recv[i]}
		}
		sort.Slice(hots, func(i, j int) bool {
			if hots[i].load != hots[j].load {
				return hots[i].load > hots[j].load
			}
			return hots[i].node < hots[j].node
		})
		if topK > len(hots) {
			topK = len(hots)
		}
		fmt.Printf("\nhottest nodes (sent+received, %d tracked):\n", len(sent))
		for _, h := range hots[:topK] {
			fmt.Printf("  node %-6d sent=%-7.0f recv=%-7.0f total=%.0f\n",
				h.node, sent[h.node], recv[h.node], h.load)
		}
	}
}

// round trims sub-microsecond noise for display.
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// validate enforces the -check contract.
func validate(tr *trace, stages, phases []string) error {
	if tr.records == 0 {
		return fmt.Errorf("check: trace is empty")
	}
	have := make(map[string]bool)
	for _, sp := range tr.spans {
		if sp.ended {
			have[sp.name] = true
		}
	}
	for _, s := range stages {
		if !strings.Contains(s, ".") {
			s = "stage." + s
		}
		if !have[s] {
			return fmt.Errorf("check: missing stage span %q", s)
		}
	}
	for _, p := range phases {
		if !have["phase."+p] {
			return fmt.Errorf("check: missing phase span %q", "phase."+p)
		}
	}
	// Nesting: a span ends no later than its parent, and a parent's direct
	// children together last no longer than it does.
	children := make(map[uint64]time.Duration)
	for _, id := range tr.order {
		sp := tr.spans[id]
		par := tr.spans[sp.parent]
		if sp.parent == 0 || par == nil || !par.ended {
			continue
		}
		if !sp.ended || sp.endAt.After(par.endAt) {
			return fmt.Errorf("check: span %s #%d ends after its parent %s #%d", sp.name, sp.id, par.name, par.id)
		}
		children[par.id] += sp.dur
	}
	for _, id := range tr.order {
		if sp := tr.spans[id]; children[id] > sp.dur {
			return fmt.Errorf("check: the children of span %s #%d last %v, longer than its %v", sp.name, sp.id, children[id], sp.dur)
		}
	}
	// Every phase span with per-round events must account for its exact
	// message total.
	checked := 0
	for _, id := range tr.order {
		sp := tr.spans[id]
		if !strings.HasPrefix(sp.name, "phase.") || !sp.ended || len(sp.rounds) == 0 {
			continue
		}
		want, ok := sp.end["messages"].(float64)
		if !ok {
			return fmt.Errorf("check: span %s #%d has round events but no messages total", sp.name, sp.id)
		}
		sum := 0
		for _, r := range sp.rounds {
			sum += r.messages
		}
		if sum != int(want) {
			return fmt.Errorf("check: span %s #%d per-round messages sum to %d, span total is %d", sp.name, sp.id, sum, int(want))
		}
		checked++
	}
	fmt.Printf("check ok: %d records, %d spans, %d phase spans with exact round accounting\n",
		tr.records, len(tr.spans), checked)
	return nil
}
