package skeleton

import (
	"sync"

	"bfskel/internal/core"
	"bfskel/internal/graph"
)

func init() { Register(&coreBackend{}) }

// coreBackend exposes the paper's staged extraction pipeline
// (core.Extractor) as the "bfskel" registry backend. It wraps — never
// reimplements — the engine: a free list of engines keeps their scratch
// (walkers, BFS buffers, arenas) and the batched MS-BFS path intact across
// calls, and the produced Result.Core is bit-identical to a direct
// core.Extractor run with the same graph and parameters.
type coreBackend struct {
	// engines is the free list of idle engines. A warmed engine holds
	// n-sized scratch, so the backend keeps it for its lifetime: a
	// sync.Pool would drop it at the second collection after its release.
	mu      sync.Mutex
	engines []*core.Extractor
}

// Name implements Backend.
func (*coreBackend) Name() string { return "bfskel" }

// Capabilities implements Backend: boundary-free, produces the
// segmentation and boundary by-products, preserves homotopy by
// construction (genuine loops are kept during refinement).
func (*coreBackend) Capabilities() Capabilities {
	return Capabilities{Segmentation: true, Homotopy: true}
}

func (b *coreBackend) get(g *graph.Graph) *core.Extractor {
	b.mu.Lock()
	var e *core.Extractor
	if n := len(b.engines); n > 0 {
		e, b.engines = b.engines[n-1], b.engines[:n-1]
	}
	b.mu.Unlock()
	if e == nil {
		return core.NewExtractor(g)
	}
	e.Bind(g)
	return e
}

func (b *coreBackend) put(e *core.Extractor) {
	e.Tracer, e.Metrics = nil, nil
	b.mu.Lock()
	b.engines = append(b.engines, e)
	b.mu.Unlock()
}

// Extract implements Backend by delegating to the staged engine. The
// engine's own instrumentation already emits the canonical
// extract→stage.* span shape, so no Run wrapper is layered on top.
func (b *coreBackend) Extract(g *graph.Graph, p Params) (*Result, *Stats, error) {
	e := b.get(g)
	defer b.put(e)
	e.Tracer, e.Metrics = p.Tracer, p.Metrics
	res, err := e.Extract(p.EffectiveCore())
	if err != nil {
		return nil, nil, err
	}
	return &Result{
		Backend:  "bfskel",
		Nodes:    res.Skeleton.Nodes(),
		Skeleton: res.Skeleton,
		CellOf:   res.CellOf,
		Boundary: res.Boundary,
		Stats:    res.Stats,
		Core:     res,
		Native:   res,
	}, res.Stats, nil
}
