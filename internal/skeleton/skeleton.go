// Package skeleton is the pluggable skeleton-backend seam: one interface
// and registry behind which every skeleton-producing algorithm of the repo
// lives — the paper's boundary-free pipeline (backend "bfskel"), the
// boundary-dependent MAP and CASE baselines, and the local-separator
// backend — plus the canonical cross-backend result they all return.
//
// The seam exists so that comparative machinery (the experiment harness,
// the scorecard, the planned extraction service) can treat algorithms as
// interchangeable: every backend consumes the same *graph.Graph, resolves
// its boundary substrate (if it needs one) through the same pluggable
// provider, emits the same "extract" → "stage.<name>" span shape, and
// returns the same Result with per-stage timings.
package skeleton

import (
	"bfskel/internal/boundary"
	"bfskel/internal/core"
	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// Stats is the shared per-run instrumentation type: every backend reports
// its stage timings through the same structure the staged core engine
// attaches to its results.
type Stats = core.Stats

// Capabilities declares what a backend consumes and produces, so harness
// code can resolve substrates and interpret results without knowing the
// algorithm.
type Capabilities struct {
	// NeedsBoundary marks backends that consume a boundary substrate
	// (resolved through Params.Boundary). Boundary-free backends derive
	// everything from connectivity alone.
	NeedsBoundary bool
	// Segmentation marks backends whose Result carries a cell decomposition
	// (Result.CellOf).
	Segmentation bool
	// Homotopy marks backends designed to preserve the field's homotopy
	// type (loops around holes survive into the skeleton).
	Homotopy bool
}

// Params is the cross-backend configuration. The zero value is usable: it
// means paper-default pipeline parameters, boundary detection on demand,
// and no observability.
type Params struct {
	// Core carries the pipeline knobs of the paper's algorithm; the zero
	// value (K == 0) means core.DefaultParams(). Backends other than
	// "bfskel" read only the knobs that map onto their construction
	// (K for neighborhood statistics).
	Core core.Params
	// Boundary resolves the boundary substrate for backends whose
	// Capabilities declare NeedsBoundary. Nil means a fresh
	// connectivity-based Detector per call; harness code that runs several
	// boundary-dependent backends over one graph should share one Detector
	// so the substrate is computed once.
	Boundary BoundaryProvider
	// Tracer, when non-nil, receives one "extract" span per run (attribute
	// "backend") with one "stage.<name>" child span per stage — the same
	// shape for every backend. Metrics, when non-nil, accumulates
	// skeleton_* counters and timing histograms labelled by backend.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// EffectiveCore returns the core pipeline parameters with the zero value
// defaulted to the paper's settings.
func (p Params) EffectiveCore() core.Params {
	if p.Core.K == 0 {
		return core.DefaultParams()
	}
	return p.Core
}

// ResolveBoundary resolves the boundary substrate through the configured
// provider (or a fresh detector when none is set).
func (p Params) ResolveBoundary(g *graph.Graph) (*boundary.Result, error) {
	if p.Boundary != nil {
		return p.Boundary.Boundary(g)
	}
	return (&Detector{}).Boundary(g)
}

// Result is the canonical cross-backend extraction result: the skeleton
// node/arc set plus the optional by-products a backend produces. Fields a
// backend does not produce stay nil.
type Result struct {
	// Backend names the producing backend.
	Backend string
	// Nodes are the skeleton node IDs, sorted ascending.
	Nodes []int32
	// Skeleton is the node-level skeleton structure (nodes + arcs).
	Skeleton *core.Skeleton
	// CellOf is the segmentation by-product: per-node cell/site assignment
	// (-1 unassigned). Nil for backends without Capabilities.Segmentation.
	CellOf []int32
	// Boundary is the boundary node set the backend consumed (baselines)
	// or produced as a by-product (bfskel). Nil when neither applies.
	Boundary []int32
	// Stats carries the run's per-stage timings and counters; identical to
	// the *Stats returned alongside the Result.
	Stats *Stats
	// Core is the full native pipeline result; non-nil only for the
	// "bfskel" backend, where it is bit-identical to a direct
	// core.Extractor run with the same parameters.
	Core *core.Result
	// Native holds the backend's algorithm-specific result (e.g.
	// *mapax.Result) for callers that know the backend.
	Native any
}

// Backend is one skeleton-extraction algorithm behind the registry seam.
// Implementations must be safe for concurrent Extract calls and
// deterministic: the same graph and parameters must produce the same
// Result, independent of GOMAXPROCS.
type Backend interface {
	// Name is the registry key (lower-case, stable).
	Name() string
	// Capabilities declares substrate needs and by-products.
	Capabilities() Capabilities
	// Extract runs the algorithm over g. The returned Stats equals
	// Result.Stats and carries one PhaseStats per executed stage.
	Extract(g *graph.Graph, p Params) (*Result, *Stats, error)
}
