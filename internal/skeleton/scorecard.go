package skeleton

import (
	"fmt"
	"strings"
)

// Score is one (scenario, backend) cell of the cross-backend scorecard:
// cost (wall time, allocations) plus the shared quality metrics. The
// geometry-aware fields are filled by the harness (internal/metrics via the
// facade) — this package only defines the machine-readable shape.
type Score struct {
	Backend  string `json:"backend"`
	Scenario string `json:"scenario"`

	// Network facts.
	N      int     `json:"n"`
	AvgDeg float64 `json:"avgDeg"`

	// Cost: one extraction's wall time and heap allocation.
	MsPerOp     float64 `json:"msPerOp"`
	AllocsPerOp uint64  `json:"allocsPerOp"`
	BytesPerOp  uint64  `json:"bytesPerOp"`
	// StageMs breaks MsPerOp down by pipeline stage.
	StageMs map[string]float64 `json:"stageMs,omitempty"`

	// Structure.
	Nodes      int  `json:"nodes"`
	Edges      int  `json:"edges"`
	Components int  `json:"components"`
	CycleRank  int  `json:"cycleRank"`
	Holes      int  `json:"holes"`
	HomotopyOK bool `json:"homotopyOK"`

	// Quality: medial placement (clearance ratio >1 means the skeleton
	// sits inward of the average node), coverage/distance against the
	// geometric medial axis, and distance against the bfskel reference
	// skeleton of the same network (-1 when no reference comparison was
	// possible).
	ClearanceRatio    float64 `json:"clearanceRatio"`
	MedialCoverage    float64 `json:"medialCoverage"`
	MeanDistToMedial  float64 `json:"meanDistToMedial"`
	HausdorffToMedial float64 `json:"hausdorffToMedial"`
	MeanDistToRef     float64 `json:"meanDistToRef"`
	HausdorffToRef    float64 `json:"hausdorffToRef"`

	// Err records a failed run (the other fields are zero then).
	Err string `json:"err,omitempty"`
}

// String renders one scorecard row for the text harness.
func (s Score) String() string {
	if s.Err != "" {
		return fmt.Sprintf("%-9s %-16s ERROR %s", s.Backend, s.Scenario, s.Err)
	}
	return fmt.Sprintf("%-9s %-16s n=%-5d deg=%-5.2f %8.1fms %7dKB nodes=%-4d comps=%-2d cycles=%d/%d homotopy=%-5v clr=%.2f cov=%.2f dref=%.2f",
		s.Backend, s.Scenario, s.N, s.AvgDeg, s.MsPerOp, s.BytesPerOp/1024,
		s.Nodes, s.Components, s.CycleRank, s.Holes, s.HomotopyOK,
		s.ClearanceRatio, s.MedialCoverage, s.MeanDistToRef)
}

// ChurnHistBounds are the dirty-fraction histogram bucket upper bounds of
// ChurnRow.DirtyHist: bucket i counts updates whose dirty fraction was at
// most ChurnHistBounds[i] (and above the previous bound).
var ChurnHistBounds = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 1}

// ChurnRow is one churn rate's throughput measurement: a steady stream of
// failure/recovery batches of the given size driven through the
// incremental extractor, compared against from-scratch extraction on the
// same field.
type ChurnRow struct {
	// Shape and N describe the requested field; Nodes and AvgDeg the
	// realised largest component the session ran on.
	Shape  string  `json:"shape"`
	N      int     `json:"n"`
	Nodes  int     `json:"nodes"`
	AvgDeg float64 `json:"avgDeg"`

	// Rate is the churn fraction per batch (BatchSize/Nodes); each of the
	// Batches updates fails BatchSize fresh nodes and recovers the
	// previous batch.
	Rate      float64 `json:"rate"`
	BatchSize int     `json:"batchSize"`
	Batches   int     `json:"batches"`

	// Throughput: sustained updates per second over the whole stream, the
	// mean and worst single update, the from-scratch baseline on the same
	// field, and their ratio (FullExtractMs / MeanUpdateMs).
	UpdatesPerSec float64 `json:"updatesPerSec"`
	MeanUpdateMs  float64 `json:"meanUpdateMs"`
	MaxUpdateMs   float64 `json:"maxUpdateMs"`
	FullExtractMs float64 `json:"fullExtractMs"`
	Speedup       float64 `json:"speedup"`

	// Repair shape: how many updates fell back to a full extraction, the
	// mean dirty fraction, and the dirty-fraction histogram over
	// ChurnHistBounds.
	Fallbacks     int     `json:"fallbacks"`
	MeanDirtyFrac float64 `json:"meanDirtyFrac"`
	DirtyHist     []int   `json:"dirtyHist,omitempty"`

	// Err records a failed row (the other fields may be partial then).
	Err string `json:"err,omitempty"`
}

// String renders one churn row for the text harness.
func (r ChurnRow) String() string {
	if r.Err != "" {
		return fmt.Sprintf("%-9s n=%-8d rate=%-7.4f ERROR %s", r.Shape, r.N, r.Rate, r.Err)
	}
	return fmt.Sprintf("%-9s n=%-8d rate=%-7.4f batch=%-5d %8.1f up/s mean=%8.2fms max=%8.2fms full=%8.1fms speedup=%6.1fx dirty=%5.3f fallbacks=%d/%d",
		r.Shape, r.Nodes, r.Rate, r.BatchSize, r.UpdatesPerSec,
		r.MeanUpdateMs, r.MaxUpdateMs, r.FullExtractMs, r.Speedup,
		r.MeanDirtyFrac, r.Fallbacks, r.Batches)
}

// Scorecard is the machine-readable cross-backend comparison: every
// requested backend run over every scenario through one quality harness.
type Scorecard struct {
	// Date is stamped by the writing command (not by library code, which
	// stays wall-clock free apart from timings).
	Date string `json:"date,omitempty"`
	// Seed is the deployment/link seed all scenarios were built with.
	Seed int64 `json:"seed"`
	// Backends and Scenarios list the matrix axes in run order.
	Backends  []string `json:"backends"`
	Scenarios []string `json:"scenarios"`
	// Scores holds one entry per (scenario, backend), scenario-major.
	Scores []Score `json:"scores"`
	// Churn optionally holds incremental-update throughput rows measured
	// alongside the quality matrix (skelbench -churn).
	Churn []ChurnRow `json:"churn,omitempty"`
}

// String renders the scorecard as an aligned text table.
func (c *Scorecard) String() string {
	var b strings.Builder
	for i, s := range c.Scores {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s.String())
	}
	return b.String()
}
