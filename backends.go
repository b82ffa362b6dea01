package bfskel

import (
	"fmt"
	"runtime"
	"time"

	"bfskel/internal/geom"
	"bfskel/internal/metrics"
	"bfskel/internal/skeleton"

	// Every skeleton backend registers itself on import; pulling them in
	// here is what makes Backends() list the full set.
	_ "bfskel/internal/casex"
	_ "bfskel/internal/localsep"
	_ "bfskel/internal/mapax"
)

// Re-exported backend-registry types. A backend is one skeleton-extraction
// algorithm (the paper's pipeline, the MAP/CASE baselines, local
// separators) behind a single seam: same graph in, same canonical result
// and span shape out.
type (
	// SkeletonBackend is one algorithm behind the registry seam.
	SkeletonBackend = skeleton.Backend
	// BackendCapabilities declares a backend's substrate needs and
	// by-products.
	BackendCapabilities = skeleton.Capabilities
	// BackendParams is the cross-backend configuration (zero value: paper
	// defaults, boundary detection on demand, no observability).
	BackendParams = skeleton.Params
	// BackendResult is the canonical cross-backend extraction result.
	BackendResult = skeleton.Result
	// BoundaryProvider resolves the boundary substrate for backends that
	// need one (see SharedBoundaryDetector, StaticBoundary).
	BoundaryProvider = skeleton.BoundaryProvider
	// BoundaryDetector is a memoizing connectivity-based provider: share
	// one across backends to compute the substrate once per graph.
	BoundaryDetector = skeleton.Detector
	// BackendScore is one (scenario, backend) cell of the scorecard.
	BackendScore = skeleton.Score
	// Scorecard is the machine-readable cross-backend comparison.
	Scorecard = skeleton.Scorecard
)

// Backends lists the registered skeleton backends in deterministic order.
func Backends() []string { return skeleton.List() }

// BackendByName looks up a registered backend.
func BackendByName(name string) (SkeletonBackend, error) { return skeleton.Get(name) }

// StaticBoundary wraps a precomputed boundary as a provider (noise
// experiments, stored substrates).
func StaticBoundary(b *BoundaryResult) BoundaryProvider { return skeleton.Static(b) }

// ExtractBackend runs the named backend over the network. The zero
// BackendParams gives paper-default parameters with boundary detection on
// demand; see BackendParams for substrate and observability control.
func ExtractBackend(net *Network, name string, p BackendParams) (*BackendResult, *Stats, error) {
	b, err := skeleton.Get(name)
	if err != nil {
		return nil, nil, err
	}
	return b.Extract(net.Graph, p)
}

// ScorecardScenario is one deployment of the scorecard matrix.
type ScorecardScenario struct {
	// Name labels the scenario in the scorecard (typically the shape name).
	Name string
	// Spec is the network to build.
	Spec NetworkSpec
}

// RunScorecard runs every named backend over every scenario through one
// quality harness and returns the filled scorecard: per-backend cost (wall
// time, heap allocation) plus the shared quality metrics — structure and
// homotopy against the field's holes, clearance and distance against the
// geometric medial axis, and distance against the bfskel reference
// skeleton of the very same network. Backends that need a boundary share
// one memoizing detector per scenario, so the substrate is computed once.
// A failing backend records Score.Err and the matrix continues; only
// scenario construction errors abort.
func RunScorecard(scenarios []ScorecardScenario, backendNames []string, sc ObsScope) (*Scorecard, error) {
	card := &Scorecard{Backends: backendNames}
	for _, s := range scenarios {
		card.Scenarios = append(card.Scenarios, s.Name)
	}
	if len(scenarios) > 0 {
		card.Seed = scenarios[0].Spec.Seed
	}
	for _, scen := range scenarios {
		net, err := BuildNetwork(scen.Spec)
		if err != nil {
			return nil, fmt.Errorf("scorecard scenario %q: %w", scen.Name, err)
		}
		medial := geom.MedialAxis(net.Spec.Shape.Poly, geom.MedialAxisOptions{})
		covR := 3 * net.Radio.MaxRange()

		// One memoized boundary per scenario, shared across backends; one
		// bfskel reference skeleton every backend is scored against.
		p := BackendParams{Boundary: &BoundaryDetector{}, Tracer: sc.Tracer, Metrics: sc.Metrics}
		ref, _, err := ExtractBackend(net, "bfskel", p)
		if err != nil {
			return nil, fmt.Errorf("scorecard scenario %q: bfskel reference: %w", scen.Name, err)
		}

		for _, name := range backendNames {
			score := BackendScore{Backend: name, Scenario: scen.Name, N: net.N(), AvgDeg: net.AvgDegree()}
			// Best of three measured runs: a single-shot wall reading on a
			// busy box swings 2x, which makes scorecard deltas flaky.
			var res *BackendResult
			var stats *Stats
			var err error
			for rep := 0; rep < 3; rep++ {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				allocs, bytes := ms.Mallocs, ms.TotalAlloc
				r, st, e := ExtractBackend(net, name, p)
				runtime.ReadMemStats(&ms)
				if e != nil {
					err = e
					break
				}
				wall := float64(st.Total) / float64(time.Millisecond)
				if rep == 0 || wall < score.MsPerOp {
					score.MsPerOp = wall
					score.AllocsPerOp, score.BytesPerOp = ms.Mallocs-allocs, ms.TotalAlloc-bytes
					res, stats = r, st
				}
			}
			if err != nil {
				score.Err = err.Error()
				card.Scores = append(card.Scores, score)
				continue
			}
			score.StageMs = make(map[string]float64, len(stats.Phases))
			for _, ph := range stats.Phases {
				score.StageMs[ph.Name] += float64(ph.Duration) / float64(time.Millisecond)
			}
			rep := metrics.EvaluateSkeleton(net.Spec.Shape.Poly, net.Points, res.Skeleton, medial, covR)
			score.Nodes, score.Edges, score.Components = rep.Nodes, rep.Edges, rep.Components
			score.CycleRank, score.Holes, score.HomotopyOK = rep.CycleRank, rep.Holes, rep.HomotopyOK
			if rep.NetworkClearance > 0 {
				score.ClearanceRatio = rep.MeanClearance / rep.NetworkClearance
			}
			score.MedialCoverage = rep.MedialCoverage
			score.MeanDistToMedial, score.HausdorffToMedial = rep.MeanDistToMedial, rep.HausdorffToMedial
			score.MeanDistToRef, score.HausdorffToRef = metrics.SkeletonDistance(net.Points, res.Skeleton, ref.Skeleton)
			card.Scores = append(card.Scores, score)
		}
	}
	return card, nil
}
