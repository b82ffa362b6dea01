package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bfskel"
)

// LayerRow is one span name's line of the per-layer self-time table.
type LayerRow struct {
	Span    string  `json:"span"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the span's time minus the time its child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// selfTimes aggregates a trace into per-span-name call counts, total and
// self time, largest self time first. Spans nest by emission order: the
// benchmark drives one operation at a time from one goroutine, so a span
// that starts while another is open is its child, even when the library
// opened it as a root span of its own tracer calls.
func selfTimes(recs []bfskel.TraceRecord) []LayerRow {
	type open struct {
		id    uint64
		child time.Duration
	}
	var stack []open
	rows := map[string]*LayerRow{}
	for _, rec := range recs {
		switch rec.Kind {
		case bfskel.TraceSpanStart:
			stack = append(stack, open{id: rec.ID})
		case bfskel.TraceSpanEnd:
			i := len(stack) - 1
			for i >= 0 && stack[i].id != rec.ID {
				i--
			}
			if i < 0 {
				continue
			}
			self := rec.Dur - stack[i].child
			stack = stack[:i]
			if i > 0 {
				stack[i-1].child += rec.Dur
			}
			row := rows[rec.Name]
			if row == nil {
				row = &LayerRow{Span: rec.Name}
				rows[rec.Name] = row
			}
			row.Calls++
			row.TotalMs += float64(rec.Dur) / 1e6
			row.SelfMs += float64(self) / 1e6
		}
	}
	out := make([]LayerRow, 0, len(rows))
	for _, name := range sortedKeys(rows) {
		out = append(out, *rows[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// writeLayers prints a self-time table.
func writeLayers(w io.Writer, rows []LayerRow) {
	total := 0.0
	for _, row := range rows {
		total += row.SelfMs
	}
	fmt.Fprintf(w, "  %-40s %7s %12s %12s %6s\n", "span", "calls", "total ms", "self ms", "self%")
	for _, row := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * row.SelfMs / total
		}
		fmt.Fprintf(w, "  %-40s %7d %12.1f %12.1f %5.1f%%\n", row.Span, row.Calls, row.TotalMs, row.SelfMs, share)
	}
}

// finishTrace derives the simnet phase times of a traced run from its
// phase.* spans: the calibrated time of each phase inside the measurement
// window, per pass.
func (r *recorder) finishTrace() {
	if r.passes == 0 {
		return
	}
	phases := map[string]float64{}
	for _, rec := range r.ring.Records() {
		phase, ok := strings.CutPrefix(rec.Name, "phase.")
		if ok && rec.Kind == bfskel.TraceSpanEnd && rec.Time.After(r.window) {
			phases[phase] += float64(rec.Dur) / 1e6 * r.calib.factor(rec.Time.Add(-rec.Dur/2))
		}
	}
	for phase, ms := range phases {
		r.exact["simnet."+phase+"_ms"] = Metric{Value: ms / float64(r.passes), Unit: "ms", N: r.passes}
	}
}

// writeTrace stores the recorded spans as JSON lines.
func writeTrace(path string, recs []bfskel.TraceRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := bfskel.NewJSONLSink(f)
	for _, rec := range recs {
		sink.Emit(rec)
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
