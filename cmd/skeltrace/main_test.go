package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bfskel"
)

// writeTrace stores the records as a JSONL trace and parses it back.
func writeTrace(t *testing.T, recs []bfskel.TraceRecord) *trace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := bfskel.NewJSONLSink(f)
	for _, rec := range recs {
		sink.Emit(rec)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// twoStages builds a root span with two sequential children; childDur and
// childEnd set the second child's duration and end offset from the start.
func twoStages(root string, childDur, childEnd time.Duration) []bfskel.TraceRecord {
	t0 := time.Unix(1_700_000_000, 0)
	ms := time.Millisecond
	return []bfskel.TraceRecord{
		{Kind: bfskel.TraceSpanStart, ID: 1, Name: root, Time: t0},
		{Kind: bfskel.TraceSpanStart, ID: 2, Parent: 1, Name: root + ".identify", Time: t0},
		{Kind: bfskel.TraceSpanEnd, ID: 2, Name: root + ".identify", Time: t0.Add(4 * ms), Dur: 4 * ms},
		{Kind: bfskel.TraceSpanStart, ID: 3, Parent: 1, Name: root + ".voronoi", Time: t0.Add(4 * ms)},
		{Kind: bfskel.TraceSpanEnd, ID: 3, Name: root + ".voronoi", Time: t0.Add(childEnd), Dur: childDur},
		{Kind: bfskel.TraceSpanEnd, ID: 1, Name: root, Time: t0.Add(10 * ms), Dur: 10 * ms},
	}
}

func TestValidateRequiredStages(t *testing.T) {
	ms := time.Millisecond
	tr := writeTrace(t, twoStages("update", 5*ms, 9*ms))
	// Dotted names match verbatim; plain names become stage.<name>.
	if err := validate(tr, []string{"update.identify", "update.voronoi"}, nil); err != nil {
		t.Errorf("verbatim stage names: %v", err)
	}
	if err := validate(tr, []string{"identify"}, nil); err == nil || !strings.Contains(err.Error(), `"stage.identify"`) {
		t.Errorf("plain name against an update trace: got %v, want a missing stage.identify", err)
	}
}

func TestValidateNesting(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name          string
		dur, end      time.Duration
		wantViolation string
	}{
		{"ok", 5 * ms, 9 * ms, ""},
		{"ends-after-parent", 5 * ms, 11 * ms, "ends after its parent"},
		{"children-outlast-parent", 7 * ms, 9 * ms, "longer than its"},
	} {
		err := validate(writeTrace(t, twoStages("extract", c.dur, c.end)), nil, nil)
		switch {
		case c.wantViolation == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantViolation != "" && (err == nil || !strings.Contains(err.Error(), c.wantViolation)):
			t.Errorf("%s: got %v, want %q", c.name, err, c.wantViolation)
		}
	}
}
