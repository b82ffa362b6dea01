// Incremental re-extraction under churn. An IncrementalExtractor holds the
// full artifact state of its latest extraction (ball matrix, index fields,
// election flags, Voronoi records, skeleton) and, given a batch of node
// removals and revivals, repairs exactly the dirty region instead of
// re-running the pipeline from scratch:
//
//   - identify: base-graph BFS rings around the churn batch bound which ball
//     rows (radius maxR), centrality/index values (maxR+L) and election
//     outcomes (maxR+L+scope) can have changed; only those are recomputed.
//     The ball rows, a push of each changed K-ball size's delta to the
//     centrality sums within L, and the fresh sums within L of a flip run
//     as three batched floods, 64 Z-ordered sources per MS-BFS pass.
//   - voronoi: a fixpoint repair over the dirty node set — a dial (bucket)
//     multi-source BFS re-derives dmin with clean-boundary injections, then
//     per-site pruned floods rebuild the records, growing the dirty set
//     whenever a clean node's distance, membership or canonical parent is
//     contradicted, and restarting until nothing grows (see DESIGN.md for
//     the soundness argument).
//   - coarse: segment tuples are rebuilt (cheap), but pairs whose segment
//     lists, paths and two-hop surroundings are untouched reuse the previous
//     SiteEdge verbatim; only dirty pairs recompute connector, paths and
//     band end nodes.
//   - refine: the end-node cluster floods — the stage's dominant cost — are
//     cached per end node and invalidated by a one-hop dilation of the
//     skeleton-mask diff plus the adjacency patch list.
//   - boundary: recomputed outright over the counting-pass median.
//
// Every pipeline rule — the index division, the local-maximum test, the
// connector walk, loop classification and pruning, the saturation counts
// and the nearest-site rule — is the full pipeline's own function. The
// update owns only the dirty-region search, the voronoi fixpoint repair,
// the delta-patched centrality sums and its caches (patchTuples,
// endFloodCache).
//
// Correctness is pinned by equivalence: every Update result is bit-identical
// to a from-scratch Extract on the mutated graph (see incremental_test.go).
// When the dirty fraction exceeds dirtyFallback — or a guard radius
// drifts, the previous election was multi-round, or the site population
// collapses — the update falls back to a full extraction transparently.
package core

import (
	"fmt"
	"sort"
	"time"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// maxRepairAttempts bounds the voronoi fixpoint restarts; the dirty set
// grows monotonically, so hitting the bound means the region is unstable
// enough that a full extraction is the cheaper answer anyway.
const maxRepairAttempts = 64

// dirtyFallback is the dirty-node fraction above which an update abandons
// localized repair and falls back to a full extraction. It never affects
// results — the incremental path is bit-identical to a full extract either
// way — only where the crossover sits; no caller has needed another value.
const dirtyFallback = 0.25

// UpdateStats instruments one incremental update.
type UpdateStats struct {
	// Removed and Revived count the nodes whose alive status actually
	// flipped (requests targeting already-dead/alive nodes are ignored).
	Removed, Revived int
	// DirtyNodes is the final dirty-region size; DirtyFraction is it over
	// the node count.
	DirtyNodes    int
	DirtyFraction float64
	// RepairedCells counts the sites whose pruned zone was re-flooded.
	RepairedCells int
	// Attempts counts voronoi fixpoint rounds (1 = no growth restart).
	Attempts int
	// Fallback reports that this update ran a full extraction instead of
	// the incremental path, and why.
	Fallback       bool
	FallbackReason string
	// Duration is the update's wall-clock time: the duration of its
	// "update" span, on every exit including errors.
	Duration time.Duration
}

// IncrementalExtractor maintains an extraction under node churn. It owns a
// staged engine (whose scratch pools it shares), the persistent per-node
// artifact state, and the flood caches that make repeated updates cheap.
// Like the Extractor it is not safe for concurrent use.
type IncrementalExtractor struct {
	e *Extractor
	p Params

	maxR int // ball matrix width: max(K, Scope, L)

	// Persistent identify state. khop/cent/index/isSite are mutable and
	// patched in place; the ball matrix itself lives in e.balls.
	khop     []int
	cent     []float64
	index    []float64
	isSite   []bool
	kEff     int
	scopeEff int
	rounds   int // election rounds of the last full extraction

	// Views into the latest Result (immutable once published).
	sites   []int32
	cellOf  []int32
	dmin    []int32
	records [][]SiteDist
	prev    *Result

	// wsum holds the centrality sums (Σ khop over N_L, excluding the node
	// itself), maintained across updates by a batched delta push plus a
	// fresh tally within L of the flips, so the centrality ring never
	// re-floods clean neighborhoods.
	wsum []int
	// tup is the sorted (pair, segment node) tuple array of the coarse
	// splice, patched in place between updates; tupScratch is the merge
	// target the arrays swap through. tupValid drops on every full run.
	tup        []pairSeg
	tupScratch []pairSeg
	tupValid   bool

	fcache endFloodCache
	uspan  *obs.Span // active Update span (nil outside Update)
	sspan  *obs.Span // active update.* stage span (nil between stages)
	last   UpdateStats
	valid  bool
}

// NewIncrementalExtractor freezes the graph, enters overlay mode and runs
// the initial full extraction that seeds the persistent state. The graph
// must not be mutated except through Update. The tracer and metrics
// (either may be nil) attach to the owned engine before the seed
// extraction runs, so the initial full run is traced like any fallback.
func NewIncrementalExtractor(g *graph.Graph, p Params, tracer *obs.Tracer, metrics *obs.Registry) (*IncrementalExtractor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return nil, ErrEmptyGraph
	}
	g.Freeze()
	g.BeginOverlay()
	ix := &IncrementalExtractor{e: NewExtractor(g), p: p}
	ix.e.Tracer, ix.e.Metrics = tracer, metrics
	ix.maxR = max(p.K, p.Scope(), p.L)
	if _, err := ix.runFull(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Extractor exposes the owned engine, e.g. to attach Tracer/Metrics.
func (ix *IncrementalExtractor) Extractor() *Extractor { return ix.e }

// Result returns the latest extraction result.
func (ix *IncrementalExtractor) Result() *Result { return ix.prev }

// LastUpdate returns the instrumentation of the most recent Update call.
func (ix *IncrementalExtractor) LastUpdate() UpdateStats { return ix.last }

// runFull executes a from-scratch extraction on the current (overlayed)
// graph and captures the persistent state the incremental path patches.
func (ix *IncrementalExtractor) runFull() (*Result, error) {
	res, err := ix.e.Extract(ix.p)
	if err != nil {
		ix.valid = false
		return nil, err
	}
	n := ix.e.g.N()
	ix.kEff, ix.scopeEff = res.EffectiveK, res.EffectiveScope
	ix.rounds = res.Stats.ElectionRounds
	ix.khop = growInts(ix.khop, n)
	copy(ix.khop, res.KHopSize)
	ix.cent = growFloats(ix.cent, n)
	copy(ix.cent, res.LCentrality)
	ix.index = growFloats(ix.index, n)
	copy(ix.index, res.Index)
	if cap(ix.isSite) < n {
		ix.isSite = make([]bool, n)
	}
	ix.isSite = ix.isSite[:n]
	for i := range ix.isSite {
		ix.isSite[i] = false
	}
	for _, s := range res.Sites {
		ix.isSite[s] = true
	}
	ix.sites = res.Sites
	ix.cellOf, ix.dmin, ix.records = res.CellOf, res.DistToSite, res.Records
	ix.prev = res
	// The identify stage leaves its centrality sums on the engine, computed
	// with the khop weights of the final election round — exactly the
	// Σ khop over N_L the delta patch maintains.
	ix.wsum = growInts(ix.wsum, n)
	copy(ix.wsum, ix.e.wsums)
	ix.tupValid = false
	ix.fcache.invalidateAll()
	ix.valid = true
	return res, nil
}

// Update applies one churn batch — node removals then revivals — and
// returns the post-batch extraction result, bit-identical to a full Extract
// on the mutated graph. The returned Result is immutable and independent of
// later updates (clean record rows are shared between consecutive results,
// which is safe because results are never mutated). A node ID outside
// [0, N) is rejected with an error before the update starts, leaving the
// extractor untouched; IDs already in the requested state, and repeats
// within a batch, are ignored.
func (ix *IncrementalExtractor) Update(remove, revive []int32) (*Result, error) {
	e := ix.e
	g := e.g
	n := g.N()
	if err := checkIDs(n, remove, revive); err != nil {
		return nil, err
	}
	span := e.Tracer.StartSpan("update",
		obs.Int("remove", len(remove)), obs.Int("revive", len(revive)))
	span.MeasureAllocs()
	ix.uspan = span
	defer func() { ix.uspan = nil }()

	sc := &e.inc
	sc.ensure(n)

	// Apply the churn through the overlay, tracking which nodes actually
	// flipped (once each, however often a batch repeats them) and the union
	// of rebuilt adjacency windows. RemoveNodes and ReviveNodes reuse one
	// patch buffer, so the first result is copied out before the second
	// call.
	flipped := sc.appendFlips(g, sc.seeds[:0], remove, true)
	removed := len(flipped)
	newlyDead := flipped[:removed:removed]
	patched := sc.patched[:0]
	patched = append(patched, g.RemoveNodes(remove)...)
	flipped = sc.appendFlips(g, flipped, revive, false)
	patched = append(patched, g.ReviveNodes(revive)...)
	sc.seeds, sc.patched = flipped, patched
	ix.last = UpdateStats{Removed: removed, Revived: len(flipped) - removed}

	if len(flipped) == 0 {
		// Nothing changed; the previous result still holds.
		ix.last.Duration = span.End(obs.Str("outcome", "no-op"))
		ix.observe()
		return ix.prev, nil
	}

	res, err := ix.update(flipped, newlyDead, patched)
	if err != nil {
		ix.last.Duration = span.End(obs.Str("error", err.Error()))
		return nil, err
	}
	ix.last.Duration = span.End(
		obs.Int("dirty", ix.last.DirtyNodes),
		obs.Int("repairedCells", ix.last.RepairedCells),
		obs.Int("attempts", ix.last.Attempts),
		obs.Str("fallback", ix.last.FallbackReason))
	ix.observe()
	return res, nil
}

// checkIDs returns an error naming the first node ID of the batches that
// lies outside [0, n).
func checkIDs(n int, remove, revive []int32) error {
	for _, batch := range [2][]int32{remove, revive} {
		for _, v := range batch {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("core: update: node ID %d out of range [0, %d)", v, n)
			}
		}
	}
	return nil
}

// observe publishes the last update's counters to the engine's metrics.
func (ix *IncrementalExtractor) observe() {
	m := ix.e.Metrics
	if m == nil {
		return
	}
	m.Counter("bfskel_update_runs_total").Inc()
	m.Histogram("bfskel_update_seconds", obs.DurationBuckets).Observe(ix.last.Duration.Seconds())
	m.Gauge("bfskel_update_dirty_nodes").Set(float64(ix.last.DirtyNodes))
	m.Counter("bfskel_update_repaired_cells_total").Add(int64(ix.last.RepairedCells))
	if ix.last.Fallback {
		m.Counter("bfskel_update_fallbacks_total").Inc()
	}
}

// stage closes the open update stage span, if any, and opens the named
// child of the Update span. Without a tracer both spans are untraced and
// this is two clock reads.
func (ix *IncrementalExtractor) stage(name string) {
	ix.endStage()
	ix.sspan = ix.uspan.StartSpan(name)
}

// endStage closes the open update stage span with the given attributes.
func (ix *IncrementalExtractor) endStage(attrs ...obs.Attr) {
	ix.sspan.End(attrs...)
	ix.sspan = nil
}

// fallback records the reason and runs the full path.
func (ix *IncrementalExtractor) fallback(reason string) (*Result, error) {
	ix.endStage()
	ix.last.Fallback = true
	ix.last.FallbackReason = reason
	ix.uspan.Event("update.fallback", obs.Str("reason", reason))
	return ix.runFull()
}

// update is the incremental path proper; flipped lists the nodes whose
// alive status changed (newlyDead is its removal prefix), patched the nodes
// whose adjacency windows were rebuilt.
func (ix *IncrementalExtractor) update(flipped, newlyDead, patched []int32) (*Result, error) {
	if !ix.valid {
		// A previous full extraction failed (e.g. ErrNoSites at high
		// churn); retry it — the state is only usable once it succeeds.
		return ix.fallback("stale-state")
	}
	if ix.rounds > 1 {
		// The last full run needed the min-site radius loop; the scoped
		// re-election below only replicates single-round elections.
		return ix.fallback("multi-round-election")
	}
	e := ix.e
	g := e.g
	n := g.N()
	p := ix.p
	sc := &e.inc
	acquire, release := e.getWalker, e.putWalker

	// ---- identify: dirty rings, ball rows, index fields ----

	ix.stage("update.identify")
	// Dirty-region horizon: base-graph (pre-churn superset) BFS from the
	// flipped nodes. Every quantity recomputed below changes only within a
	// bounded base-distance of a flip — see DESIGN.md for the per-ring
	// arguments — so ring membership is read straight off this pass.
	horizon := ix.maxR + p.L + ix.scopeEff
	distD := sc.distD
	for i := range distD {
		distD[i] = graph.Unreachable
	}
	queue := sc.list[:0]
	for _, v := range flipped {
		if distD[v] < 0 {
			distD[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := distD[u]
		if int(du) >= horizon {
			continue
		}
		for _, v := range g.BaseNeighbors(u) {
			if distD[v] < 0 {
				distD[v] = du + 1
				queue = append(queue, v)
			}
		}
	}

	// Ball rows within maxR of a flip, and the fresh sums within L of one
	// (L <= maxR). Both lists are taken along the graph's batch order, so
	// each 64-source MS-BFS pass below floods one compact patch; the
	// horizon BFS order would interleave the flips' neighborhoods and leave
	// a pass's balls barely overlapping.
	srcs, fresh := sc.srcs[:0], sc.fresh[:0]
	order := g.BatchOrder()
	for i := range distD {
		v := int32(i)
		if order != nil {
			v = order[i]
		}
		if d := int(distD[v]); d >= 0 && d <= ix.maxR {
			srcs = append(srcs, v)
			if d <= p.L {
				fresh = append(fresh, v)
			}
		}
	}
	sc.srcs, sc.fresh = srcs, fresh
	e.countSaturation(p, srcs, -1)
	g.BatchBallSizesInto(ix.maxR, srcs, e.balls, acquire, release)
	e.countSaturation(p, srcs, +1)
	// The sources whose khop changed, with the integer differences the
	// centrality delta pass below propagates.
	khop, wsum := ix.khop, ix.wsum
	pushed, delta := sc.pushed[:0], sc.delta[:0]
	for _, v := range srcs {
		k := e.ball(int(v), ix.kEff)
		if d := k - khop[v]; d != 0 {
			pushed = append(pushed, v)
			delta = append(delta, d)
			khop[v] = k
		}
	}
	sc.pushed, sc.delta = pushed, delta

	// The saturation guards are global order statistics; if either radius
	// would resolve differently on the mutated graph, the whole field needs
	// rebuilding. The engine's counts, seeded by the last full run's
	// identify, are kept in lockstep with the ball rows above, so resolving
	// off them is identify's own resolution on the full matrix.
	if radiusFromCounts(e.satK, p.K, n) != ix.kEff ||
		radiusFromCounts(e.satS, p.Scope(), n) != ix.scopeEff {
		return ix.fallback("radius-drift")
	}

	// Centrality and index within maxR+L of a flip.
	wlist := sc.elist[:0]
	wring := ix.maxR + p.L
	for _, v := range queue {
		if int(distD[v]) <= wring {
			wlist = append(wlist, v)
		}
	}
	// Delta-patch the persistent sums instead of re-flooding the whole ring.
	// N_L membership can only change within L of a flip (an entering or
	// leaving member needs an old- or new-graph path of length <= L through
	// a flipped node), so those sums are rebuilt fresh; every other affected
	// sum moves by exactly the khop deltas of the ball-ring nodes within L
	// of it. Each changed source pushes its delta to every node within L,
	// 64 sources per pass; the fresh pass then overwrites the sums within L
	// of a flip, whatever the push added to them. All arithmetic stays
	// integer, and indexOf is the full path's division.
	g.PushSumsInto(p.L, pushed, delta, wsum, acquire, release)
	g.BallWeightedSumsInto(graph.KernelBatched, p.L, khop, wsum, acquire, release, fresh...)
	for _, v := range wlist {
		ix.cent[v], ix.index[v] = indexOf(khop[v], wsum[v], e.ball(int(v), p.L))
	}

	if ix.sspan.Enabled() {
		ix.endStage(obs.Int("balls", len(srcs)), obs.Int("fresh", len(fresh)),
			obs.Int("pushed", len(pushed)), obs.Int("horizon", horizon))
	}

	// ---- election ----

	ix.stage("update.election")
	// Re-elect within maxR+L+scope of a flip (index values an election
	// reads live one scope-ball away from the last changed index).
	elist := wlist
	for _, v := range queue {
		if d := int(distD[v]); d > wring && d <= horizon {
			elist = append(elist, v)
		}
	}
	sc.elist = elist
	isSite, index, scope := ix.isSite, ix.index, ix.scopeEff
	dead := g.DeadMask()
	graph.ParallelRange(g, len(elist), acquire, release, func(w *graph.Walker, i int) {
		isSite[elist[i]] = isLocalMax(w, elist[i], index, scope, dead)
	})
	newSites := sitesOf(isSite)
	if len(newSites) < minSites(n) {
		return ix.fallback("min-sites")
	}
	// Site diff against the previous election (both lists ascending).
	addS, rmS := sc.addS[:0], sc.rmS[:0]
	for i, j := 0, 0; i < len(ix.sites) || j < len(newSites); {
		switch {
		case j == len(newSites) || (i < len(ix.sites) && ix.sites[i] < newSites[j]):
			rmS = append(rmS, ix.sites[i])
			i++
		case i == len(ix.sites) || newSites[j] < ix.sites[i]:
			addS = append(addS, newSites[j])
			j++
		default:
			i++
			j++
		}
	}
	sc.addS, sc.rmS = addS, rmS
	if ix.sspan.Enabled() {
		ix.endStage(obs.Int("sites", len(newSites)),
			obs.Int("gained", len(addS)), obs.Int("lost", len(rmS)))
	}

	// ---- voronoi: fixpoint repair over the dirty region ----

	ix.stage("update.voronoi")
	ncell := make([]int32, n)
	copy(ncell, ix.cellOf)
	ndist := make([]int32, n)
	copy(ndist, ix.dmin)
	nrec := make([][]SiteDist, n)
	copy(nrec, ix.records)

	r := &vrepair{
		g: g, alpha: p.Alpha, sc: sc,
		dirty: sc.dirty, list: sc.list[:0],
		ndist: ndist, nrec: nrec,
		prevRec: ix.records, prevDmin: ix.dmin,
		sites: newSites,
	}
	// Seed the dirty set: flipped nodes, rebuilt adjacency windows (their
	// sorted-neighbor parent scans changed), the zones of removed or
	// de-elected sites, newly elected sites, and — for distance increases —
	// the record-descendants of newly dead nodes.
	for _, v := range patched {
		r.markDirty(v)
	}
	for _, v := range flipped {
		r.markDirty(v) // dead nodes are not in patched's alive filter
	}
	if len(rmS) > 0 {
		rmMark := sc.rmMark
		for _, s := range rmS {
			rmMark[s] = true
		}
		for v := 0; v < n; v++ {
			if r.dirty[v] {
				continue
			}
			for _, rec := range ix.records[v] {
				if rmMark[rec.Site] {
					r.markDirty(int32(v))
					break
				}
			}
		}
		for _, s := range rmS {
			rmMark[s] = false
		}
	}
	for _, s := range addS {
		r.markDirty(s)
	}
	// Dead-node closure: a broken recorded parent chain can only raise
	// distances, and every broken chain passes through a newly dead node,
	// so dirty the downstream record-trees of exactly those.
	closure := append(sc.bv[:0], newlyDead...)
	for head := 0; head < len(closure); head++ {
		w := closure[head]
		for _, c := range g.BaseNeighbors(w) {
			if !g.Alive(c) || r.dirty[c] {
				continue
			}
			for _, rec := range ix.records[c] {
				if rec.Parent == w {
					r.markDirty(c)
					closure = append(closure, c)
					break
				}
			}
		}
	}
	sc.bv = closure[:0]

	maxDirty := int(dirtyFallback * float64(n))
	for {
		r.attempts++
		if len(r.list) > maxDirty {
			ix.last.DirtyNodes = len(r.list)
			ix.last.DirtyFraction = float64(len(r.list)) / float64(n)
			r.release()
			return ix.fallback("dirty-fraction")
		}
		if r.attempts > maxRepairAttempts {
			ix.last.DirtyNodes = len(r.list)
			ix.last.DirtyFraction = float64(len(r.list)) / float64(n)
			r.release()
			return ix.fallback("repair-divergence")
		}
		r.grown = false
		for _, v := range r.list {
			r.nrec[v] = r.nrec[v][:0]
		}
		r.repairDmin()
		r.collectBoundary()
		r.collectSites()
		for _, s := range r.rs {
			r.repairSite(s)
		}
		if r.grown {
			continue
		}
		r.parentPass()
		if r.grown {
			continue
		}
		r.childrenPass()
		if !r.grown {
			break
		}
	}
	// Commit: derive cell assignments from the repaired records.
	for _, v := range r.list {
		ncell[v], ndist[v] = nearestSite(nrec[v])
	}
	ix.last.DirtyNodes = len(r.list)
	ix.last.DirtyFraction = float64(len(r.list)) / float64(n)
	ix.last.RepairedCells = len(r.rs)
	ix.last.Attempts = r.attempts
	if ix.sspan.Enabled() {
		ix.endStage(obs.Int("dirty", len(r.list)),
			obs.Int("cells", len(r.rs)), obs.Int("attempts", r.attempts))
	}

	// ---- coarse: splice repaired pairs into the retained edge list ----

	ix.stage("update.coarse")
	segNodes, vorNodes := specialNodes(nrec)
	splice := &coarseSplice{prev: ix.prev.Edges, dirty: sc.dirty, distD: distD, wring: wring}
	edges, coarseSkel := e.connectPairs(ix.patchTuples(nrec, r.list), ix.index, nrec, splice)
	if ix.sspan.Enabled() {
		ix.endStage(obs.Int("edges", len(edges)), obs.Int("reused", splice.reused))
	}

	// ---- refine: loop classification with cached end floods ----

	ix.stage("update.refine")
	// A single-round election makes the outcome counters a full run would
	// report known up front; refine adds PrunedNodes.
	st := newStats()
	st.ElectionRounds = 1
	st.KAdjustments = p.K - ix.kEff
	st.ScopeAdjustments = p.Scope() - ix.scopeEff
	ix.fcache.notePatched(patched)
	loops, skel := e.refine(p, ix.index, nrec, ncell, edges, &ix.fcache, st)

	// ---- boundary ----

	ix.stage("update.boundary")
	// khop is the effective-K ball column, as in the full run's boundary
	// stage, so one median serves the stat and the classification.
	st.MedianKHopBall = medianKHop(ix.khop, &e.ints)
	boundary := e.boundaryByProduct(ix.khop, st.MedianKHopBall)
	ix.endStage()

	// ---- assemble and persist ----

	st.Sites = len(newSites)
	st.SegmentNodes = len(segNodes)
	st.VoronoiNodes = len(vorNodes)
	st.Edges = len(edges)
	st.BoundaryNodes = len(boundary)
	res := &Result{
		Params:         p,
		EffectiveK:     ix.kEff,
		EffectiveScope: ix.scopeEff,
		KHopSize:       append([]int(nil), ix.khop...),
		LCentrality:    append([]float64(nil), ix.cent...),
		Index:          append([]float64(nil), ix.index...),
		Sites:          newSites,
		CellOf:         ncell,
		DistToSite:     ndist,
		Records:        nrec,
		SegmentNodes:   segNodes,
		VoronoiNodes:   vorNodes,
		Edges:          edges,
		Coarse:         coarseSkel,
		Loops:          loops,
		Skeleton:       skel,
		Boundary:       boundary,
		Stats:          st,
	}
	st.FakeLoops = res.NumFakeLoops()
	st.GenuineLoops = res.NumGenuineLoops()
	ix.sites = newSites
	ix.cellOf, ix.dmin, ix.records = ncell, ndist, nrec
	ix.prev = res
	r.release()
	return res, nil
}

// coarseSplice is the coarse stage's reuse test during an update: the
// pair walk offers it every pair, and it hands back the previous SiteEdge
// whenever the pair's segment band, paths and two-hop surroundings are
// provably untouched, so only dirty pairs recompute connector, reverse
// paths and band end nodes. A pair is dirty when any segment node is
// voronoi-dirty or within the index ring (which covers the two-hop
// adjacency reads of the band end-node sweep, since wring >= 2), or when
// any node of the retained path has repaired records.
type coarseSplice struct {
	prev   []SiteEdge // the previous result's edges, in pair order
	dirty  []bool     // voronoi dirty flags
	distD  []int32    // base-graph distance from the churn batch
	wring  int        // index ring radius
	pi     int        // cursor into prev
	reused int        // SiteEdges handed back
}

// reuse returns the previous SiteEdge of pair pr if it can be kept
// verbatim, else nil. Pairs must arrive in ascending order. Same segment
// count with every current segment clean forces identical segment lists
// (clean records are unchanged, so current tuples are a subset of the
// previous ones), and a fully clean path pins the reverse-path walk.
func (s *coarseSplice) reuse(pr SitePair, segs []int32) *SiteEdge {
	for s.pi < len(s.prev) && lessPair(s.prev[s.pi].Pair, pr) {
		s.pi++
	}
	if s.pi == len(s.prev) || s.prev[s.pi].Pair != pr || s.prev[s.pi].SegmentCount != len(segs) {
		return nil
	}
	for _, v := range segs {
		if s.dirty[v] || (s.distD[v] >= 0 && int(s.distD[v]) <= s.wring) {
			return nil
		}
	}
	pe := &s.prev[s.pi]
	for _, x := range pe.Path {
		if s.dirty[x] {
			return nil
		}
	}
	s.reused++
	return pe
}

// patchTuples maintains the sorted (pair, segment node) tuple array the
// coarse splice groups over. The first update after a full run rebuilds and
// sorts every tuple; later updates only delete the previous tuples of
// repaired nodes and merge in their rebuilt ones — clean record rows are
// shared between consecutive results, so every other tuple is unchanged by
// construction. The merge keeps the array in (A, B, v) order without
// re-sorting it.
func (ix *IncrementalExtractor) patchTuples(nrec [][]SiteDist, dirtyList []int32) []pairSeg {
	if !ix.tupValid {
		tuples := ix.tup[:0]
		for v := range nrec {
			tuples = appendPairTuples(tuples, nrec[v], int32(v))
		}
		sortPairSegs(tuples)
		ix.tup = tuples
		ix.tupValid = true
		return tuples
	}
	sc := &ix.e.inc
	del, add := sc.delT[:0], sc.addT[:0]
	for _, v := range dirtyList {
		del = appendPairTuples(del, ix.records[v], v)
		add = appendPairTuples(add, nrec[v], v)
	}
	sortPairSegs(del)
	sortPairSegs(add)
	sc.delT, sc.addT = del, add
	old := ix.tup
	out := ix.tupScratch[:0]
	j, k := 0, 0
	for i := 0; i < len(old); i++ {
		for k < len(add) && pairSegLess(add[k], old[i]) {
			out = append(out, add[k])
			k++
		}
		if j < len(del) && del[j] == old[i] {
			j++
			continue
		}
		out = append(out, old[i])
	}
	out = append(out, add[k:]...)
	if j != len(del) {
		// A deletion had no counterpart: the persistent array diverged from
		// the records (must not happen). Rebuild rather than splice garbage.
		ix.tupValid = false
		ix.tupScratch = out[:0]
		return ix.patchTuples(nrec, dirtyList)
	}
	ix.tup, ix.tupScratch = out, old[:0]
	return out
}

// lessPair orders site pairs lexicographically, the coarse stage's output
// order.
func lessPair(a, b SitePair) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// incScratch is the incremental-update scratch pooled on the engine: the
// dirty queue and flags, the dial buckets of the repair BFS passes, the
// per-site flood stamps, the ring source lists. The churn tombstone bitmap
// itself lives on the graph overlay. None of this escapes into results.
type incScratch struct {
	distD     []int32   // base-graph distance from the churn batch
	seeds     []int32   // flipped-node buffer
	patched   []int32   // rebuilt-window union of the batch
	dirty     []bool    // voronoi dirty flags (cleared after each update)
	list      []int32   // dirty queue / horizon BFS queue
	buckets   [][]int32 // dial queue of the repair BFS passes
	settled   []int32   // V1 settle stamps
	fdist     []int32   // per-site flood distances
	fstamp    []int32   // per-site flood stamps
	checked   []int32   // parent-pass and flip dedup stamps
	smark     []int32   // repair-site dedup stamps
	sslot     []int32   // repair-site injection slot (valid where smark is current)
	injOff    []int32   // per-slot offsets into injV/injD
	injV      []int32   // boundary injection nodes, grouped by slot
	injD      []int32   // boundary injection distances, parallel to injV
	epoch     int32     // shared stamp epoch
	bv, bu    []int32   // dirty-boundary edge list (dirty node, clean neighbor)
	rs        []int32   // sites to re-flood
	fqueueBuf []int32   // per-site flood settle order
	srcs      []int32   // ball-ring sources, in batch order
	fresh     []int32   // nodes within L of a flip, in batch order
	pushed    []int32   // ball-ring sources whose khop changed
	delta     []int     // khop change of each pushed source
	delT      []pairSeg // coarse tuples dropped by the splice merge
	addT      []pairSeg // coarse tuples added by the splice merge
	rmMark    []bool    // removed-site mark
	addS      []int32   // gained sites
	rmS       []int32   // lost sites
	elist     []int32   // centrality/election ring
}

func (s *incScratch) ensure(n int) {
	s.distD = growInt32s(s.distD, n)
	s.dirty = growBools(s.dirty, n)
	s.settled = growInt32s(s.settled, n)
	s.fdist = growInt32s(s.fdist, n)
	s.fstamp = growInt32s(s.fstamp, n)
	s.checked = growInt32s(s.checked, n)
	s.smark = growInt32s(s.smark, n)
	s.sslot = growInt32s(s.sslot, n)
	s.rmMark = growBools(s.rmMark, n)
	if s.epoch > 1<<30 {
		// Stamp wrap: epochs are shared across updates; reset well before
		// int32 overflow.
		for i := range s.settled {
			s.settled[i], s.fstamp[i], s.checked[i], s.smark[i] = 0, 0, 0, 0
		}
		s.epoch = 0
	}
}

// appendFlips appends to flipped each node of batch whose alive status is
// alive, i.e. the ones the batch will flip, skipping repeats.
func (s *incScratch) appendFlips(g *graph.Graph, flipped, batch []int32, alive bool) []int32 {
	s.epoch++
	ep := s.epoch
	for _, v := range batch {
		if g.Alive(v) == alive && s.checked[v] != ep {
			s.checked[v] = ep
			flipped = append(flipped, v)
		}
	}
	return flipped
}

// vrepair is the voronoi fixpoint repair of one update. All BFS passes are
// serial and every distance queue is a dial (bucket) queue, so mixed-depth
// boundary injections settle in exact distance order. The dirty region is
// not necessarily small (100-node batches dirty ~16% of a 10^5 field), so
// each attempt is kept linear in the dirty nodes and boundary records:
// collectSites indexes the injections per site once, and no pass rescans
// the boundary list per site.
type vrepair struct {
	g     *graph.Graph
	alpha int32
	sc    *incScratch

	dirty []bool
	list  []int32

	ndist []int32      // repaired dmin (dirty entries valid after repairDmin)
	nrec  [][]SiteDist // repaired records (dirty rows rebuilt per attempt)

	prevRec  [][]SiteDist // retained records (clean rows stay exact)
	prevDmin []int32      // retained dmin

	sites    []int32 // the new site list, ascending
	rs       []int32 // sites needing a re-flood, ascending
	grown    bool
	attempts int
}

// markDirty moves a node into the dirty set, dropping its retained record
// row (the repair rebuilds it from scratch).
func (r *vrepair) markDirty(v int32) {
	if !r.dirty[v] {
		r.dirty[v] = true
		r.list = append(r.list, v)
		r.nrec[v] = nil
	}
}

// release returns borrowed buffers to the scratch pool and clears the dirty
// flags for the next update.
func (r *vrepair) release() {
	for _, v := range r.list {
		r.dirty[v] = false
	}
	r.sc.list = r.list[:0]
	r.sc.rs = r.rs[:0]
}

// push appends v to the dial bucket at distance d.
func (r *vrepair) push(v, d int32) {
	for int(d) >= len(r.sc.buckets) {
		r.sc.buckets = append(r.sc.buckets, nil)
	}
	r.sc.buckets[d] = append(r.sc.buckets[d], v)
}

func (r *vrepair) resetBuckets() {
	for i := range r.sc.buckets {
		r.sc.buckets[i] = r.sc.buckets[i][:0]
	}
}

// repairDmin recomputes dmin over the dirty set: dirty sites seed at 0,
// and every clean->dirty edge injects the clean side's retained distance
// plus one (retained values are exact for clean nodes — any node whose
// distance could change is dirty by the seeding rules). When a wave reaches
// a clean node strictly below its retained distance the region grows and
// the flood continues through it in flight; distances settle in Dijkstra
// order either way.
func (r *vrepair) repairDmin() {
	sc := r.sc
	sc.epoch++
	ep := sc.epoch
	r.resetBuckets()
	for _, v := range r.list {
		r.ndist[v] = graph.Unreachable
	}
	for _, s := range r.sites {
		if r.dirty[s] {
			r.push(s, 0)
		}
	}
	for _, v := range r.list {
		for _, u := range r.g.Neighbors(int(v)) {
			if !r.dirty[u] && r.prevDmin[u] != graph.Unreachable {
				r.push(v, r.prevDmin[u]+1)
			}
		}
	}
	for d := 0; d < len(sc.buckets); d++ {
		for qi := 0; qi < len(sc.buckets[d]); qi++ {
			v := sc.buckets[d][qi]
			if sc.settled[v] == ep {
				continue
			}
			sc.settled[v] = ep
			r.ndist[v] = int32(d)
			for _, u := range r.g.Neighbors(int(v)) {
				if r.dirty[u] {
					if sc.settled[u] != ep {
						r.push(u, int32(d)+1)
					}
				} else if r.prevDmin[u] == graph.Unreachable || int32(d)+1 < r.prevDmin[u] {
					r.markDirty(u)
					r.ndist[u] = graph.Unreachable
					r.push(u, int32(d)+1)
				}
			}
		}
	}
}

// collectBoundary lists the dirty->clean edges; they feed the per-site
// injections and the parent pass. Dead nodes have empty adjacency, so every
// listed clean neighbor is alive.
func (r *vrepair) collectBoundary() {
	sc := r.sc
	sc.bv, sc.bu = sc.bv[:0], sc.bu[:0]
	for _, v := range r.list {
		for _, u := range r.g.Neighbors(int(v)) {
			if !r.dirty[u] {
				sc.bv = append(sc.bv, v)
				sc.bu = append(sc.bu, u)
			}
		}
	}
}

// collectSites gathers the sites whose pruned zones intersect the dirty
// region: dirty sites plus every site recorded at a clean node bordering a
// dirty one (slack monotonicity makes those records sufficient seeds; the
// ascending order reproduces the full path's per-node record order).
//
// The same walk over the boundary records indexes each site's flood
// injections: slot k (assigned in discovery order, sslot[site]) owns
// entries injOff[k]..injOff[k+1]-1 of injV/injD, the (dirty node, clean
// record distance + 1) pairs of its boundary edges in boundary-list order.
// repairSite reads only its own slice, so seeding every flood of an attempt
// costs O(boundary records) in total.
func (r *vrepair) collectSites() {
	sc := r.sc
	sc.epoch++
	ep := sc.epoch
	r.rs = sc.rs[:0]
	off := append(sc.injOff[:0], 0)
	claim := func(s int32) int32 {
		if sc.smark[s] != ep {
			sc.smark[s] = ep
			sc.sslot[s] = int32(len(r.rs))
			r.rs = append(r.rs, s)
			off = append(off, 0)
		}
		return sc.sslot[s]
	}
	for _, s := range r.sites {
		if r.dirty[s] {
			claim(s)
		}
	}
	for _, u := range sc.bu {
		for _, rec := range r.prevRec[u] {
			off[claim(rec.Site)+1]++
		}
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	// Fill with off[k] as slot k's cursor; afterwards off[k] holds slot k's
	// end, so shifting one place restores the start offsets.
	total := int(off[len(off)-1])
	injV, injD := growInt32s(sc.injV, total), growInt32s(sc.injD, total)
	for i, u := range sc.bu {
		for _, rec := range r.prevRec[u] {
			k := sc.sslot[rec.Site]
			injV[off[k]], injD[off[k]] = sc.bv[i], rec.D+1
			off[k]++
		}
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	sc.injOff, sc.injV, sc.injD = off, injV, injD
	sort.Slice(r.rs, func(i, j int) bool { return r.rs[i] < r.rs[j] })
	sc.rs = r.rs
}

// repairSite re-floods one site's pruned zone across the dirty region. The
// flood seeds from the site (if dirty) and from boundary injections carrying
// clean-side record distances; it only traverses dirty nodes, growing the
// region in flight when a clean node's recorded distance is beaten or a new
// membership appears within the slack (equal arrivals are safe: an unchanged
// clean record implies the rest of its chain is unchanged too). Records are
// laid down in a settle pass with the canonical lowest-ID parent rule shared
// with both full-path realisations.
func (r *vrepair) repairSite(s int32) {
	sc := r.sc
	sc.epoch++
	ep := sc.epoch
	r.resetBuckets()
	g := r.g
	alpha := r.alpha
	if r.dirty[s] && r.ndist[s] != graph.Unreachable {
		r.push(s, 0)
	}
	k := sc.sslot[s]
	for j := sc.injOff[k]; j < sc.injOff[k+1]; j++ {
		r.push(sc.injV[j], sc.injD[j])
	}
	fq := sc.fqueueBuf[:0]
	for d := int32(0); int(d) < len(sc.buckets); d++ {
		for qi := 0; qi < len(sc.buckets[d]); qi++ {
			v := sc.buckets[d][qi]
			if sc.fstamp[v] == ep {
				continue
			}
			if r.dirty[v] {
				if r.ndist[v] == graph.Unreachable || d > r.ndist[v]+alpha {
					continue
				}
			} else {
				// Growth triggers at the clean boundary.
				rec, has := recordFor(r.prevRec, v, s)
				du := r.prevDmin[v]
				switch {
				case has && d < rec.D:
					// The zone moved inward: the recorded distance is beaten.
				case !has && du != graph.Unreachable && d <= du+alpha:
					// New membership within the slack.
				default:
					continue
				}
				r.markDirty(v)
				// The node's dmin itself is unchanged (repairDmin fixpointed
				// without touching it), so retain it.
				r.ndist[v] = du
				r.grown = true
			}
			sc.fstamp[v] = ep
			sc.fdist[v] = d
			fq = append(fq, v)
			for _, u := range g.Neighbors(int(v)) {
				if sc.fstamp[u] == ep {
					continue
				}
				bound := r.prevDmin[u]
				if r.dirty[u] {
					bound = r.ndist[u]
				}
				if bound == graph.Unreachable || d+1 > bound+alpha {
					continue
				}
				r.push(u, d+1)
			}
		}
	}
	// Settle pass: append records with the canonical parent — the first
	// (lowest-ID) neighbor in sorted adjacency one hop closer within the
	// site's visited set, where clean membership is witnessed by a retained
	// record.
	for _, v := range fq {
		d := sc.fdist[v]
		if d == 0 {
			r.nrec[v] = append(r.nrec[v], SiteDist{Site: s, D: 0, Parent: v})
			continue
		}
		parent := v
		for _, w := range g.Neighbors(int(v)) {
			var dw int32 = -2
			if sc.fstamp[w] == ep {
				dw = sc.fdist[w]
			} else if !r.dirty[w] {
				if rw, ok := recordFor(r.prevRec, w, s); ok {
					dw = rw.D
				}
			}
			if dw == d-1 {
				parent = w
				break
			}
		}
		r.nrec[v] = append(r.nrec[v], SiteDist{Site: s, D: d, Parent: parent})
	}
	sc.fqueueBuf = fq[:0]
}

// parentPass re-derives the canonical parent of every record held by a
// clean node bordering the dirty region: a dirty neighbor entering or
// leaving a site's visited set can change which lowest-ID neighbor is one
// hop closer even when the clean node's own distances are untouched. A
// mismatch dirties the node and restarts the fixpoint.
func (r *vrepair) parentPass() {
	sc := r.sc
	sc.epoch++
	ep := sc.epoch
	for _, u := range sc.bu {
		if sc.checked[u] == ep {
			continue
		}
		sc.checked[u] = ep
		if r.dirty[u] {
			continue
		}
		for _, rec := range r.prevRec[u] {
			if rec.D == 0 {
				continue
			}
			parent := u
			for _, w := range r.g.Neighbors(int(u)) {
				var dw int32 = -2
				if r.dirty[w] {
					if rw, ok := rowRecord(r.nrec[w], rec.Site); ok {
						dw = rw.D
					}
				} else if rw, ok := recordFor(r.prevRec, w, rec.Site); ok {
					dw = rw.D
				}
				if dw == rec.D-1 {
					parent = w
					break
				}
			}
			if parent != rec.Parent {
				r.markDirty(u)
				r.grown = true
				break
			}
		}
	}
}

// childrenPass dirties the clean record-children of every dirty node whose
// repaired record for their shared site changed distance or vanished — the
// child's recorded parent pointer (and possibly its own membership) hangs
// off that record. Only the pre-pass dirty list is scanned: freshly grown
// nodes have no repaired rows yet and restart the fixpoint anyway.
func (r *vrepair) childrenPass() {
	end := len(r.list)
	for li := 0; li < end; li++ {
		v := r.list[li]
		for _, rp := range r.prevRec[v] {
			if nr, ok := rowRecord(r.nrec[v], rp.Site); ok && nr.D == rp.D {
				continue
			}
			for _, c := range r.g.Neighbors(int(v)) {
				if r.dirty[c] {
					continue
				}
				if rc, ok := recordFor(r.prevRec, c, rp.Site); ok && rc.Parent == v {
					r.markDirty(c)
					r.grown = true
				}
			}
		}
	}
}

// rowRecord scans one record row for a site.
func rowRecord(recs []SiteDist, site int32) (SiteDist, bool) {
	for _, r := range recs {
		if r.Site == site {
			return r, true
		}
	}
	return SiteDist{}, false
}

// endFloodCache caches the refine stage's end-node cluster floods across
// incremental updates. An entry is the exact node set floodFrom(src, radius)
// returns; it stays valid while no flood-visible change — a skeleton-mask
// flip or a rebuilt adjacency window — lands on the set or its one-hop
// neighborhood (the flood reads adjacency of visited nodes and mask of
// visited nodes plus their neighbors). Claim replay over cached sets yields
// the same cluster partition as re-flooding: the partition is a pure
// function of the per-end node sets.
type endFloodCache struct {
	radius   int32
	prevMask []bool
	entries  map[int32]floodSet
	patched  []int32
	poison   []int32
	epoch    int32
}

// floodSet is one cached end-node flood: the exact visited node set plus its
// ID range, which lets eviction skip sets that cannot contain a poisoned
// node (node IDs are spatially correlated under the grid layout, so the
// range test discards almost every entry in one comparison).
type floodSet struct {
	nodes  []int32
	lo, hi int32
}

// makeFloodSet copies the nodes and computes their range.
func makeFloodSet(nodes []int32) floodSet {
	fs := floodSet{nodes: append([]int32(nil), nodes...)}
	if len(nodes) == 0 {
		return fs
	}
	fs.lo, fs.hi = nodes[0], nodes[0]
	for _, v := range nodes[1:] {
		if v < fs.lo {
			fs.lo = v
		}
		if v > fs.hi {
			fs.hi = v
		}
	}
	return fs
}

// invalidateAll drops every entry (used after full extractions, whose
// classify mask is not captured).
func (c *endFloodCache) invalidateAll() {
	c.prevMask = nil
	c.patched = c.patched[:0]
	for k := range c.entries {
		delete(c.entries, k)
	}
}

// notePatched records this update's rebuilt adjacency windows for the next
// begin call.
func (c *endFloodCache) notePatched(patched []int32) {
	c.patched = append(c.patched[:0], patched...)
}

// begin validates the cache against the current classify mask and flood
// radius, evicting poisoned entries, then snapshots the mask.
func (c *endFloodCache) begin(g *graph.Graph, mask []bool, radius int32) {
	n := g.N()
	if c.entries == nil {
		c.entries = make(map[int32]floodSet)
	}
	if cap(c.poison) < n {
		c.poison = make([]int32, n)
	}
	c.poison = c.poison[:n]
	if radius != c.radius || c.prevMask == nil || len(c.prevMask) != len(mask) {
		for k := range c.entries {
			delete(c.entries, k)
		}
		c.radius = radius
	} else {
		c.epoch++
		ep := c.epoch
		plo, phi := int32(n), int32(-1)
		mark := func(x int32) {
			c.poison[x] = ep
			if x < plo {
				plo = x
			}
			if x > phi {
				phi = x
			}
			for _, y := range g.Neighbors(int(x)) {
				c.poison[y] = ep
				if y < plo {
					plo = y
				}
				if y > phi {
					phi = y
				}
			}
		}
		for v := range mask {
			if mask[v] != c.prevMask[v] {
				mark(int32(v))
			}
		}
		for _, v := range c.patched {
			mark(v)
		}
		if phi >= 0 {
			for src, fs := range c.entries {
				if fs.hi < plo || fs.lo > phi {
					continue
				}
				bad := false
				for _, v := range fs.nodes {
					if c.poison[v] == ep {
						bad = true
						break
					}
				}
				if bad {
					delete(c.entries, src)
				}
			}
		}
	}
	if cap(c.prevMask) < len(mask) {
		c.prevMask = make([]bool, len(mask))
	}
	c.prevMask = c.prevMask[:len(mask)]
	copy(c.prevMask, mask)
	c.patched = c.patched[:0]
}
