package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// Extractor is the staged extraction engine: it runs the pipeline stages
// Identify → Voronoi → Coarse → Refine → Boundary over one graph while
// owning every piece of reusable scratch state — the ball-size matrix, BFS
// distance/stamp/queue buffers, a Walker pool, per-node flag arrays sized
// to the graph — so repeated extractions (parameter sweeps, the experiment
// harness, benchmarks) stop paying the allocation cost of a cold start.
//
// Reuse contract: an Extractor is NOT safe for concurrent use; run one
// extraction at a time per engine and create several engines for
// parallelism (they share nothing). Every *Result it returns is fully
// independent — no Result field aliases engine scratch — so results stay
// valid across later Extract and Bind calls and across engine disposal.
type Extractor struct {
	g *graph.Graph

	// CollectMemStats enables per-phase allocation accounting
	// (Stats.Phases[i].BytesAlloc) via runtime.ReadMemStats. Off by
	// default: the read is stop-the-world and would distort benchmarks.
	CollectMemStats bool

	// Tracer, when non-nil, receives one "extract" span per run with one
	// "stage.<name>" child span per pipeline stage, plus events for guard
	// adjustments, election rounds and flood counts. The spans are the
	// run's only clock: each PhaseStats.Duration and Stats.Total is the
	// duration its span's End returns, so a traced run's stats equal the
	// Dur of the matching end records. Each stage span's end record also
	// carries the bytes allocated inside the stage (Record.AllocBytes).
	// Nil disables emission; the spans still keep time.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates run/stage counters and timing
	// histograms across extractions (see DESIGN.md for the name taxonomy).
	Metrics *obs.Registry

	walkers *sync.Pool // of *graph.Walker bound to g

	// root and span track the active run's trace spans; sweeps/visited
	// aggregate BFS work drained from pooled walkers (atomic: walkers are
	// released from parallel workers).
	root    *obs.Span
	span    *obs.Span
	sweeps  atomic.Int64
	visited atomic.Int64

	// Reusable scratch; none of it escapes into results.
	balls     []int32               // identify: n rows of ballW cumulative ball sizes
	ballW     int                   // identify: ball matrix stride (maxR)
	wsums     []int                 // centrality sums (identify)
	satK      []int                 // identify seeds, updates patch: per-radius K saturation counts
	satS      []int                 // identify seeds, updates patch: per-radius scope saturation counts
	ints      []int                 // median / boundary sort scratch
	bools     []bool                // electSites maximality flags
	vorSites  []int32               // voronoi: Z-sorted site buffer
	vorVisits [][]graph.PrunedVisit // voronoi: per-batch pruned-flood outputs
	vorCand   [][]int32             // voronoi: per-chunk frontier candidates (parallel dmin)
	fld       floodScratch          // coarse/refine: stamped BFS + mark scratch; voronoi borrows its buffers
	uf        stampedUF             // refine: dense stamped union-find (end clusters, forests)
	pairBuf   []pairSeg             // coarse: (pair, segment node) tuples
	cmask     []bool                // refine: classify skeleton-membership mask
	cmaskOn   []int32               // refine: set bits of cmask, for O(set) clearing
	inc       incScratch            // incremental updates: dirty queue, dial buckets, repair stamps
}

// NewExtractor creates a staged engine bound to g. The scratch pools are
// filled lazily on first use.
func NewExtractor(g *graph.Graph) *Extractor {
	e := &Extractor{}
	e.rebind(g)
	return e
}

// Bind re-targets the engine at a different graph, keeping whatever
// scratch capacity carries over (buffers only grow). Binding the current
// graph is a no-op, preserving the Walker pool.
func (e *Extractor) Bind(g *graph.Graph) {
	if e.g != g {
		e.rebind(g)
	}
}

func (e *Extractor) rebind(g *graph.Graph) {
	e.g = g
	// Walkers hold per-graph buffers; a graph change invalidates the pool.
	e.walkers = &sync.Pool{New: func() any { return graph.NewWalker(g) }}
}

// Graph returns the graph the engine is bound to.
func (e *Extractor) Graph() *graph.Graph { return e.g }

func (e *Extractor) getWalker() *graph.Walker { return e.walkers.Get().(*graph.Walker) }

func (e *Extractor) putWalker(w *graph.Walker) {
	// Drain the walker's BFS work tally into the per-stage aggregate. This
	// runs a handful of times per stage (once per worker), so the atomics
	// are noise.
	sweeps, visited := w.TakeCounts()
	e.sweeps.Add(int64(sweeps))
	e.visited.Add(int64(visited))
	e.walkers.Put(w)
}

// event annotates the active stage span; inert when tracing is off.
func (e *Extractor) event(name string, attrs ...obs.Attr) {
	e.span.Event(name, attrs...)
}

// Extract runs the full staged pipeline and returns the result with its
// instrumentation attached (Result.Stats).
func (e *Extractor) Extract(p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if e.g.N() == 0 {
		return nil, ErrEmptyGraph
	}
	rs := &runState{e: e, g: e.g, p: p, res: &Result{Params: p}, stats: newStats()}
	if err := rs.runStages(stages); err != nil {
		return nil, err
	}
	return rs.res, nil
}

// stage is one named phase of the staged engine.
type stage interface {
	name() string
	run(rs *runState) error
}

// stages is the full pipeline in execution order. CompleteFromVoronoi
// enters at coarseStage with externally computed phase 1-2 artifacts.
var stages = []stage{
	identifyStage{}, voronoiStage{}, coarseStage{}, refineStage{}, boundaryStage{},
}

// runState carries one extraction through the stage pipeline.
type runState struct {
	e     *Extractor
	g     *graph.Graph
	p     Params
	res   *Result
	stats *Stats
}

func newStats() *Stats {
	return &Stats{Phases: make([]PhaseStats, 0, len(stages))}
}

// runStages executes the given pipeline suffix, wrapping the run in an
// "extract" trace span with one child span per stage, and attaches the
// stats to the result. Stats.Total and each PhaseStats.Duration are the
// durations of those spans.
func (rs *runState) runStages(todo []stage) error {
	e := rs.e
	e.root = e.Tracer.StartSpan("extract",
		obs.Int("nodes", rs.g.N()), obs.Int("k", rs.p.K), obs.Int("l", rs.p.L),
		obs.Int("scope", rs.p.Scope()), obs.Int("alpha", int(rs.p.Alpha)),
		obs.Int("stages", len(todo)))
	for _, st := range todo {
		if err := rs.runStage(st); err != nil {
			e.root.End(obs.Str("error", err.Error()))
			e.root = nil
			return err
		}
	}
	rs.stats.Total = e.root.End(
		obs.Int("sites", rs.stats.Sites), obs.Int("edges", rs.stats.Edges),
		obs.Int("boundaryNodes", rs.stats.BoundaryNodes))
	rs.res.Stats = rs.stats
	e.root = nil
	if m := e.Metrics; m != nil {
		m.Counter("bfskel_extract_runs_total").Inc()
		m.Histogram("bfskel_extract_seconds", obs.DurationBuckets).Observe(rs.stats.Total.Seconds())
		m.Gauge("bfskel_extract_sites").Set(float64(rs.stats.Sites))
		m.Counter("bfskel_election_rounds_total").Add(int64(rs.stats.ElectionRounds))
		m.Counter(obs.Label("bfskel_guard_adjustments_total", "kind", "k")).Add(int64(rs.stats.KAdjustments))
		m.Counter(obs.Label("bfskel_guard_adjustments_total", "kind", "scope")).Add(int64(rs.stats.ScopeAdjustments))
		m.Counter("bfskel_voronoi_floods_total").Add(int64(rs.stats.Floods))
	}
	return nil
}

func (rs *runState) runStage(st stage) error {
	e := rs.e
	var before runtime.MemStats
	if e.CollectMemStats {
		runtime.ReadMemStats(&before)
	}
	sweeps0, visited0 := e.sweeps.Load(), e.visited.Load()
	e.span = e.root.StartSpan("stage." + st.name())
	e.span.MeasureAllocs()
	err := st.run(rs)
	sweeps, visited := e.sweeps.Load()-sweeps0, e.visited.Load()-visited0
	var d time.Duration
	if err != nil {
		d = e.span.End(obs.Int64("sweeps", sweeps), obs.Int64("visited", visited),
			obs.Str("error", err.Error()))
	} else {
		d = e.span.End(obs.Int64("sweeps", sweeps), obs.Int64("visited", visited))
	}
	e.span = nil
	ps := PhaseStats{Name: st.name(), Duration: d, Sweeps: sweeps, Visited: visited}
	if e.CollectMemStats {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		ps.BytesAlloc = after.TotalAlloc - before.TotalAlloc
	}
	rs.stats.Phases = append(rs.stats.Phases, ps)
	if m := e.Metrics; m != nil {
		m.Histogram(obs.Label("bfskel_stage_seconds", "stage", st.name()), obs.DurationBuckets).Observe(d.Seconds())
		m.Counter("bfskel_bfs_sweeps_total").Add(sweeps)
		m.Counter("bfskel_bfs_visited_nodes_total").Add(visited)
	}
	return err
}

// identifyStage is Phase 1 (Sec. III-A): neighborhood statistics and site
// election.
type identifyStage struct{}

func (identifyStage) name() string { return "identify" }

func (identifyStage) run(rs *runState) error {
	khop, cent, index, sites, kEff, scopeEff := rs.e.identify(rs.p, rs.stats)
	if len(sites) == 0 {
		return ErrNoSites
	}
	rs.res.EffectiveK = kEff
	rs.res.EffectiveScope = scopeEff
	rs.res.KHopSize = khop
	rs.res.LCentrality = cent
	rs.res.Index = index
	rs.res.Sites = sites
	rs.stats.Sites = len(sites)
	return nil
}

// voronoiStage is Phase 2 (Sec. III-B): cell construction with
// almost-equidistant records.
type voronoiStage struct{}

func (voronoiStage) name() string { return "voronoi" }

func (voronoiStage) run(rs *runState) error {
	rs.res.CellOf, rs.res.DistToSite, rs.res.Records =
		rs.e.voronoi(rs.res.Sites, rs.p.Alpha, rs.stats)
	return nil
}

// coarseStage is Phase 3 (Sec. III-C): connecting adjacent cells through
// max-index segment nodes.
type coarseStage struct{}

func (coarseStage) name() string { return "coarse" }

func (coarseStage) run(rs *runState) error {
	res := rs.res
	res.SegmentNodes, res.VoronoiNodes = specialNodes(res.Records)
	res.Edges, res.Coarse = rs.e.coarse(res.Index, res.Records)
	rs.stats.SegmentNodes = len(res.SegmentNodes)
	rs.stats.VoronoiNodes = len(res.VoronoiNodes)
	rs.stats.Edges = len(res.Edges)
	return nil
}

// refineStage is Phase 4 (Sec. III-D): loop classification and pruning.
type refineStage struct{}

func (refineStage) name() string { return "refine" }

func (refineStage) run(rs *runState) error {
	res := rs.res
	res.Loops, res.Skeleton = rs.e.refine(rs.p, res.Index, res.Records,
		res.CellOf, res.Edges, nil, rs.stats)
	rs.stats.FakeLoops = res.NumFakeLoops()
	rs.stats.GenuineLoops = res.NumGenuineLoops()
	return nil
}

// boundaryStage computes the boundary by-product (Sec. III-E) from the
// Phase 1 neighborhood statistics.
type boundaryStage struct{}

func (boundaryStage) name() string { return "boundary" }

func (boundaryStage) run(rs *runState) error {
	khop := rs.res.KHopSize
	rs.stats.MedianKHopBall = medianKHop(khop, &rs.e.ints)
	rs.res.Boundary = rs.e.boundaryByProduct(khop, rs.stats.MedianKHopBall)
	rs.stats.BoundaryNodes = len(rs.res.Boundary)
	return nil
}

// Scratch growth helpers: keep capacity, reallocate only when the bound
// graph outgrew the buffer.

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
