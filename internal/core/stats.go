package core

import (
	"fmt"
	"strings"
	"time"
)

// PhaseStats instruments one named stage of an extraction run.
type PhaseStats struct {
	// Name is the stage name: identify, voronoi, coarse, refine, boundary.
	Name string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// BytesAlloc is the heap allocated while the stage ran. It is collected
	// only when Extractor.CollectMemStats is set (0 otherwise), because the
	// underlying runtime.ReadMemStats call is stop-the-world.
	BytesAlloc uint64
	// Sweeps and Visited are the BFS work counters drained from the pooled
	// walkers while the stage ran: the number of sweeps started (one per
	// source, whether it ran alone or in a 64-wide MS-BFS batch) and the
	// number of (source, node) visits.
	Sweeps  int64
	Visited int64
}

// Stats instruments one run of the staged extraction engine: per-phase wall
// time plus the pipeline's work and outcome counters. The engine attaches
// it to the produced Result (Result.Stats). Runs entering the pipeline
// midway (CompleteFromVoronoi) only list the stages they executed.
type Stats struct {
	// Phases lists the executed stages in pipeline order.
	Phases []PhaseStats
	// Total is the wall-clock time of the whole run.
	Total time.Duration

	// BFSSweeps counts truncated per-node BFS sweeps (ball sizing,
	// centrality, and election each contribute one sweep per node).
	BFSSweeps int
	// Floods counts network-wide floods during Voronoi construction: the
	// multi-source minimum-distance pass plus one pruned flood per site.
	Floods int
	// ElectionRounds counts site-election attempts (> 1 when the min-site
	// guard had to shrink the radii and re-elect).
	ElectionRounds int
	// KAdjustments and ScopeAdjustments count the radius reductions applied
	// by the saturation and min-site guards (0 on ordinary networks).
	KAdjustments     int
	ScopeAdjustments int
	// MedianKHopBall is the component-median |N_K| ball size at the
	// effective K — the discriminating statistic the whole pipeline runs on.
	MedianKHopBall int

	// Outcome counters, echoing the sizes of the corresponding Result
	// fields so a run can be summarised without holding the Result.
	Sites        int
	SegmentNodes int
	VoronoiNodes int
	Edges        int
	FakeLoops    int
	GenuineLoops int
	// PrunedNodes counts skeleton nodes removed by the final branch
	// pruning.
	PrunedNodes int
	// BoundaryNodes is the size of the boundary by-product.
	BoundaryNodes int
}

// Phase returns the stats of the named stage, if it ran. A nil receiver
// (a result whose stats were dropped, e.g. by the JSON round trip) reports
// no phases.
func (s *Stats) Phase(name string) (PhaseStats, bool) {
	if s == nil {
		return PhaseStats{}, false
	}
	for _, p := range s.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStats{}, false
}

// String renders a one-line phase-timing summary. Phase names and
// durations are padded to fixed widths so multi-run printouts (parameter
// sweeps, repeated scenarios) column-align line over line. Safe on a nil
// receiver.
func (s *Stats) String() string {
	if s == nil {
		return "(no stats)"
	}
	nameW := len("total")
	for _, p := range s.Phases {
		if len(p.Name) > nameW {
			nameW = len(p.Name)
		}
	}
	var b strings.Builder
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "%-*s=%-10s ", nameW, p.Name, p.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "%-*s=%s", nameW, "total", s.Total.Round(time.Microsecond))
	return b.String()
}
