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
