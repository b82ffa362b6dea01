package core

import (
	"sync"
	"sync/atomic"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// Extractor is the staged extraction engine: it runs the pipeline stages
// Identify → Voronoi → Coarse → Refine → Boundary over one graph while
// owning every piece of reusable scratch state — the ball-size matrix, BFS
// distance/stamp/queue buffers, a free list of Walkers, per-node flag
// arrays sized to the graph — so repeated extractions (parameter sweeps,
// the experiment harness, benchmarks) stop paying the allocation cost of a
// cold start. An incremental update (IncrementalExtractor) is one more run
// of the same stage runner: three repair stages, then the shared pipeline
// from coarse on.
//
// Reuse contract: an Extractor is NOT safe for concurrent use; run one
// extraction at a time per engine and create several engines for
// parallelism (they share nothing). Every *Result it returns is fully
// independent — no Result field aliases engine scratch — so results stay
// valid across later Extract and Bind calls and across engine disposal.
type Extractor struct {
	g *graph.Graph

	// Tracer, when non-nil, receives one "extract" span per run with one
	// "stage.<name>" child span per pipeline stage, plus events for guard
	// adjustments, election rounds and flood counts. The spans are the
	// run's only clock: each PhaseStats.Duration and Stats.Total is the
	// duration its span's End returns, so a traced run's stats equal the
	// Dur of the matching end records. Each stage span's end record also
	// carries the bytes allocated inside the stage (Record.AllocBytes),
	// which PhaseStats.BytesAlloc reports. Nil disables emission; the
	// spans still keep time.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates run/stage counters and timing
	// histograms across extractions (see DESIGN.md for the name taxonomy).
	Metrics *obs.Registry

	// walkers is the free list of Walkers bound to g. Each holds n-sized
	// scratch, so the engine keeps them for its lifetime: a sync.Pool
	// would drop them at the second collection after their release.
	walkerMu sync.Mutex
	walkers  []*graph.Walker

	// span is the active stage span; sweeps/visited aggregate BFS work
	// drained from released walkers (atomic: walkers are released from
	// parallel workers).
	span    *obs.Span
	sweeps  atomic.Int64
	visited atomic.Int64

	// Reusable scratch; none of it escapes into results. An incremental
	// update also reads the last full run's identify state off it: the
	// ball matrix, the centrality sums, the saturation counts, the
	// election flags and the sorted coarse tuples.
	balls      []int32               // identify: n rows of ballW cumulative ball sizes
	ballW      int                   // identify: ball matrix stride (maxR)
	wsums      []int                 // centrality sums (identify)
	satK       []int                 // identify seeds, updates patch: per-radius K saturation counts
	satS       []int                 // identify seeds, updates patch: per-radius scope saturation counts
	ints       []int                 // median / boundary sort scratch
	bools      []bool                // electSites maximality flags
	vorSites   []int32               // voronoi: Z-sorted site buffer
	vorVisits  [][]graph.PrunedVisit // voronoi: per-batch pruned-flood outputs
	vorCand    [][]int32             // voronoi: per-chunk frontier candidates (parallel dmin)
	fld        floodScratch          // voronoi and refine borrow its node lists and vals
	uf         stampedUF             // refine: dense stamped union-find (end clusters, forests)
	pairBuf    []pairSeg             // coarse: sorted (pair, segment node) tuples of the last run
	pairTmp    []pairSeg             // coarse: merge buffer of the parallel tuple sort
	pairStarts []int32               // coarse: first tuple of each pair group, plus len(pairBuf)
	cls        classifyScratch       // refine: loop classification's per-end and per-edge tables
	cmask      []bool                // refine: classify skeleton-membership mask
	cmaskOn    []int32               // refine: set bits of cmask, for O(set) clearing
	inc        incScratch            // incremental updates: dirty queue, dial buckets, repair stamps
}

// NewExtractor creates a staged engine bound to g. The scratch pools are
// filled lazily on first use.
func NewExtractor(g *graph.Graph) *Extractor {
	return &Extractor{g: g}
}

// Bind re-targets the engine at a different graph, keeping whatever
// scratch capacity carries over (buffers only grow). Binding the current
// graph is a no-op, keeping the walkers.
func (e *Extractor) Bind(g *graph.Graph) {
	if e.g != g {
		// Walkers hold per-graph buffers; a graph change drops them.
		e.g, e.walkers = g, nil
	}
}

// Graph returns the graph the engine is bound to.
func (e *Extractor) Graph() *graph.Graph { return e.g }

func (e *Extractor) getWalker() *graph.Walker {
	e.walkerMu.Lock()
	var w *graph.Walker
	if n := len(e.walkers); n > 0 {
		w, e.walkers = e.walkers[n-1], e.walkers[:n-1]
	}
	e.walkerMu.Unlock()
	if w == nil {
		w = graph.NewWalker(e.g)
	}
	return w
}

func (e *Extractor) putWalker(w *graph.Walker) {
	// Drain the walker's BFS work tally into the per-stage aggregate. This
	// runs a handful of times per stage (once per worker), so the atomics
	// are noise.
	sweeps, visited := w.TakeCounts()
	e.sweeps.Add(int64(sweeps))
	e.visited.Add(int64(visited))
	e.walkerMu.Lock()
	e.walkers = append(e.walkers, w)
	e.walkerMu.Unlock()
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
	if err := rs.extract(stages); err != nil {
		return nil, err
	}
	return rs.res, nil
}

// stage is one named phase of the staged engine.
type stage struct {
	name string
	run  func(rs *runState) error
}

// stages is the full pipeline in execution order. CompleteFromVoronoi
// enters at coarse with externally computed phase 1-2 artifacts, and an
// incremental update enters there with repaired ones (updateStages).
var stages = []stage{
	{"identify", identifyStage}, {"voronoi", voronoiStage},
	{"coarse", coarseStage}, {"refine", refineStage}, {"boundary", boundaryStage},
}

// runState carries one run through the stage pipeline.
type runState struct {
	e     *Extractor
	g     *graph.Graph
	p     Params
	res   *Result
	stats *Stats
	// upd is an incremental update's context: the repair stages' state and
	// the caches the coarse stage consults (the tuple patch and the coarse
	// splice). Nil on full runs.
	upd *update
	// attrs are the active stage's extra end-record attributes; stages
	// add them only when the stage span is traced.
	attrs []obs.Attr
}

func newStats() *Stats {
	return &Stats{Phases: make([]PhaseStats, 0, len(updateStages))}
}

// extract runs the given pipeline suffix as one "extract" span and
// attaches the stats to the result; Stats.Total is that span's duration.
func (rs *runState) extract(todo []stage) error {
	e := rs.e
	root := e.Tracer.StartSpan("extract",
		obs.Int("nodes", rs.g.N()), obs.Int("k", rs.p.K), obs.Int("l", rs.p.L),
		obs.Int("scope", rs.p.Scope()), obs.Int("alpha", int(rs.p.Alpha)),
		obs.Int("stages", len(todo)))
	if err := rs.runStages(root, todo); err != nil {
		root.End(obs.Str("error", err.Error()))
		return err
	}
	rs.stats.Total = root.End(
		obs.Int("sites", rs.stats.Sites), obs.Int("edges", rs.stats.Edges),
		obs.Int("boundaryNodes", rs.stats.BoundaryNodes))
	rs.res.Stats = rs.stats
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

// runStages executes the stages in order, each as a child span of root:
// "stage.<name>" on extraction runs, "update.<name>" on incremental
// updates. It stops at the first error.
func (rs *runState) runStages(root *obs.Span, todo []stage) error {
	for _, st := range todo {
		if err := rs.runStage(root, st); err != nil {
			return err
		}
	}
	return nil
}

func (rs *runState) runStage(root *obs.Span, st stage) error {
	e := rs.e
	prefix := "stage."
	if rs.upd != nil {
		prefix = "update."
	}
	sweeps0, visited0 := e.sweeps.Load(), e.visited.Load()
	e.span = root.StartSpan(prefix + st.name)
	e.span.MeasureAllocs()
	rs.attrs = nil
	err := st.run(rs)
	sweeps, visited := e.sweeps.Load()-sweeps0, e.visited.Load()-visited0
	attrs := append([]obs.Attr{obs.Int64("sweeps", sweeps), obs.Int64("visited", visited)}, rs.attrs...)
	if _, fb := err.(fallback); err != nil && !fb {
		attrs = append(attrs, obs.Str("error", err.Error()))
	}
	d := e.span.End(attrs...)
	rs.stats.Phases = append(rs.stats.Phases, PhaseStats{Name: st.name, Duration: d,
		BytesAlloc: e.span.Allocs(), Sweeps: sweeps, Visited: visited})
	e.span = nil
	// bfskel_stage_seconds and the BFS counters measure extraction runs.
	if m := e.Metrics; m != nil && rs.upd == nil {
		m.Histogram(obs.Label("bfskel_stage_seconds", "stage", st.name), obs.DurationBuckets).Observe(d.Seconds())
		m.Counter("bfskel_bfs_sweeps_total").Add(sweeps)
		m.Counter("bfskel_bfs_visited_nodes_total").Add(visited)
	}
	return err
}

// annotate adds end-record attributes to the active stage span. Callers
// guard it with the span's Enabled, so untraced runs build no attributes.
func (rs *runState) annotate(attrs ...obs.Attr) { rs.attrs = append(rs.attrs, attrs...) }

// identifyStage is Phase 1 (Sec. III-A): neighborhood statistics and site
// election.
func identifyStage(rs *runState) error {
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
func voronoiStage(rs *runState) error {
	rs.res.CellOf, rs.res.DistToSite, rs.res.Records =
		rs.e.voronoi(rs.res.Sites, rs.p.Alpha, rs.stats)
	return nil
}

// coarseStage is Phase 3 (Sec. III-C): connecting adjacent cells through
// max-index segment nodes.
func coarseStage(rs *runState) error {
	res := rs.res
	res.SegmentNodes, res.VoronoiNodes = specialNodes(res.Records)
	res.Edges, res.Coarse = rs.e.coarse(res.Index, res.Records, rs.upd)
	rs.stats.SegmentNodes = len(res.SegmentNodes)
	rs.stats.VoronoiNodes = len(res.VoronoiNodes)
	rs.stats.Edges = len(res.Edges)
	if rs.upd != nil && rs.e.span.Enabled() {
		rs.annotate(obs.Int("edges", len(res.Edges)), obs.Int("reused", rs.upd.splice.reused))
	}
	return nil
}

// refineStage is Phase 4 (Sec. III-D): loop classification and pruning.
func refineStage(rs *runState) error {
	res := rs.res
	res.Loops, res.Skeleton = rs.e.refine(rs.p, res.Index, res.Records,
		res.CellOf, res.Edges, rs.stats)
	rs.stats.FakeLoops = res.NumFakeLoops()
	rs.stats.GenuineLoops = res.NumGenuineLoops()
	return nil
}

// boundaryStage computes the boundary by-product (Sec. III-E) from the
// Phase 1 neighborhood statistics.
func boundaryStage(rs *runState) error {
	khop := rs.res.KHopSize
	rs.stats.MedianKHopBall = medianKHop(khop, &rs.e.ints)
	rs.res.Boundary = rs.e.boundaryByProduct(khop, rs.stats.MedianKHopBall)
	rs.stats.BoundaryNodes = len(rs.res.Boundary)
	return nil
}

// grow is the scratch growth helper: it keeps capacity and reallocates
// only when the bound graph outgrew the buffer.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
