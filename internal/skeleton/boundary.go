package skeleton

import (
	"sync"

	"bfskel/internal/boundary"
	"bfskel/internal/graph"
)

// BoundaryProvider resolves the boundary substrate that boundary-dependent
// backends (MAP, CASE) consume. The seam exists so the substrate is
// pluggable: the default connectivity-based detector, a precomputed or
// hand-crafted boundary (noise experiments), or an alternative recognition
// algorithm all plug in here without the backends knowing the difference.
type BoundaryProvider interface {
	// Boundary returns the boundary of g. Implementations must be safe for
	// concurrent use and deterministic per graph.
	Boundary(g *graph.Graph) (*boundary.Result, error)
}

// Detector is the default provider: the neighborhood-size boundary detector
// (Fekete et al.), memoizing the most recent graph so several backends
// resolving the same substrate over one graph pay for detection once.
type Detector struct {
	// Opts configures the detector; the zero value uses its defaults.
	Opts boundary.Options

	mu    sync.Mutex
	lastG *graph.Graph
	last  *boundary.Result
}

// Boundary detects (or returns the memoized) boundary of g.
func (d *Detector) Boundary(g *graph.Graph) (*boundary.Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastG == g && d.last != nil {
		return d.last, nil
	}
	d.lastG, d.last = g, boundary.Detect(g, d.Opts)
	return d.last, nil
}

// Static returns a provider that always serves the given precomputed
// boundary, regardless of the graph — the seam the baseline comparisons
// and the noise-injection experiments use.
func Static(b *boundary.Result) BoundaryProvider { return staticProvider{b: b} }

type staticProvider struct{ b *boundary.Result }

func (p staticProvider) Boundary(*graph.Graph) (*boundary.Result, error) { return p.b, nil }
