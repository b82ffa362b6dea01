// Incremental re-extraction under churn. An IncrementalExtractor keeps its
// latest Result and the engine scratch of the full run that seeded it (ball
// matrix, centrality sums, election flags, sorted coarse tuples) and, given
// a batch of node removals and revivals, repairs exactly the dirty region
// instead of re-running the pipeline from scratch. An update is a run of
// the engine's stage runner: three repair stages replace identify and
// voronoi, and the shared coarse, refine and boundary stages follow with
// the update's caches.
//
//   - identify: base-graph BFS rings around the churn batch bound which ball
//     rows (radius maxR), centrality/index values (maxR+L) and election
//     outcomes (maxR+L+scope) can have changed; only those are recomputed.
//     The ball rows, a push of each changed K-ball size's delta to the
//     centrality sums within L, and the fresh sums within L of a flip run
//     as three batched floods, 64 Z-ordered sources per MS-BFS pass.
//   - election: the local-maximum test re-runs within maxR+L+scope.
//   - voronoi: a fixpoint repair over the dirty node set — a dial (bucket)
//     multi-source BFS re-derives dmin with clean-boundary injections, then
//     per-site pruned floods rebuild the records, growing the dirty set
//     whenever a clean node's distance, membership or canonical parent is
//     contradicted, and restarting until nothing grows (see DESIGN.md for
//     the soundness argument). When an attempt must re-flood more than half
//     of the cells, or the attempts pass maxRepairAttempts, the stage hands
//     over to the full pipeline's Voronoi stage and the dirty set becomes
//     the nodes whose record row changed.
//   - coarse: the sorted segment tuples are patched (patchTuples), and
//     pairs whose segment lists, paths and two-hop surroundings are
//     untouched reuse the previous SiteEdge verbatim (coarseSplice); only
//     dirty pairs recompute connector, paths and band end nodes.
//   - refine: the end-node cluster floods — the stage's dominant cost — are
//     cached per end node and invalidated by a one-hop dilation of the
//     skeleton-mask diff plus the adjacency patch list (endFloodCache).
//   - boundary: recomputed outright over the counting-pass median.
//
// Every pipeline rule — the index division, the local-maximum test, the
// connector walk, loop classification and pruning, the saturation counts
// and the nearest-site rule — is the full pipeline's own function. The
// update owns only the dirty-region search, the voronoi fixpoint repair,
// the delta-patched centrality sums and its caches (patchTuples,
// coarseSplice, endFloodCache).
//
// Correctness is pinned by equivalence: every Update result is bit-identical
// to a from-scratch Extract on the mutated graph (see incremental_test.go).
// When the previous full extraction failed (stale state), the previous
// election was multi-round, a guard radius drifts, or the site population
// collapses, the update falls back to a full extraction transparently; a
// large batch otherwise stays incremental, with only its Voronoi stage
// recomputed.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// maxRepairAttempts bounds the voronoi fixpoint restarts; the dirty set
// grows monotonically, so passing the bound means the region is unstable
// enough that the full Voronoi stage is the cheaper answer, and the update
// hands over to it ("attempts").
const maxRepairAttempts = 64

// UpdateStats instruments one incremental update.
type UpdateStats struct {
	// Removed and Revived count the nodes whose alive status actually
	// flipped (requests targeting already-dead/alive nodes are ignored).
	Removed, Revived int
	// DirtyNodes is the final dirty-region size; DirtyFraction is it over
	// the node count.
	DirtyNodes    int
	DirtyFraction float64
	// RepairedCells counts the sites whose pruned zone was re-flooded: all
	// of them when the Voronoi stage recomputed.
	RepairedCells int
	// Attempts counts voronoi fixpoint rounds (1 = no growth restart), up to
	// and including the one that handed over on a recompute.
	Attempts int
	// Recompute is why the Voronoi stage handed its repair over to the full
	// stage inside the update: "cells" (an attempt had to re-flood more
	// than half of the cells) or "attempts" (the fixpoint passed
	// maxRepairAttempts). It is "" when the stage repaired, and on a
	// fallback.
	Recompute string
	// Fallback reports that this update ran the whole pipeline from
	// scratch instead of the incremental path, and why: "stale-state",
	// "multi-round-election", "radius-drift" or "min-sites". A Voronoi
	// recompute is not a fallback; the update's other stages still patch.
	Fallback       bool
	FallbackReason string
	// Duration is the update's wall-clock time: the duration of its
	// "update" span, on every exit including errors.
	Duration time.Duration
}

// IncrementalExtractor maintains an extraction under node churn. It owns a
// staged engine, whose scratch holds the last full run's identify state
// (ball matrix, centrality sums, saturation counts, election flags, sorted
// coarse tuples) and which an update patches in place; the latest Result
// holds everything else an update repairs. Like the Extractor it is not
// safe for concurrent use.
type IncrementalExtractor struct {
	e    *Extractor
	p    Params
	prev *Result // the latest result (immutable once published)

	fcache endFloodCache
	last   UpdateStats
	valid  bool
}

// NewIncrementalExtractor runs the initial full extraction that seeds the
// persistent state; the first Update puts the graph into overlay mode. The
// graph must not be mutated except through Update. The tracer and metrics
// (either may be nil) attach to the owned engine before the seed
// extraction runs, so the initial full run is traced like any fallback.
func NewIncrementalExtractor(g *graph.Graph, p Params, tracer *obs.Tracer, metrics *obs.Registry) (*IncrementalExtractor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return nil, ErrEmptyGraph
	}
	ix := &IncrementalExtractor{e: NewExtractor(g), p: p}
	ix.e.Tracer, ix.e.Metrics = tracer, metrics
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
// graph; the engine's scratch and the result are the state the next
// update patches.
func (ix *IncrementalExtractor) runFull() (*Result, error) {
	res, err := ix.e.Extract(ix.p)
	ix.fcache.invalidateAll()
	ix.valid = err == nil
	if err != nil {
		return nil, err
	}
	ix.prev = res
	return res, nil
}

// Update applies one churn batch — node removals then revivals — and
// returns the post-batch extraction result, bit-identical to a full Extract
// on the mutated graph. The returned Result is immutable and independent of
// later updates (when the Voronoi stage repairs, clean record rows are
// shared with the previous result, which is safe because results are never
// mutated; when it recomputes, every row is fresh). A node ID outside
// [0, N) is rejected with an error before the update starts, leaving the
// extractor untouched; IDs already in the requested state, and repeats
// within a batch, are ignored.
//
// An update is a run of the engine's stage runner under an "update" span:
// three repair stages (identify, election, voronoi) patch the previous
// phase 1-2 artifacts, and the shared coarse, refine and boundary stages
// finish the result with the update's caches. Its Stats list the six
// stages, and Stats.Total is the update span's duration, which also covers
// applying the batch to the graph.
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

	res, err := ix.update(span, &update{ix: ix, flipped: flipped, newlyDead: newlyDead, patched: patched})
	if err != nil {
		ix.last.Duration = span.End(obs.Str("error", err.Error()))
		return nil, err
	}
	ix.last.Duration = span.End(
		obs.Int("dirty", ix.last.DirtyNodes),
		obs.Int("repairedCells", ix.last.RepairedCells),
		obs.Int("attempts", ix.last.Attempts),
		obs.Str("fallback", ix.last.FallbackReason))
	if !ix.last.Fallback {
		res.Stats.Total = ix.last.Duration
	}
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
	if ix.last.Recompute != "" {
		m.Counter("bfskel_update_voronoi_recomputes_total").Inc()
	}
}

// fallback is the error a repair stage returns to abandon the incremental
// path; its value is the reason UpdateStats and the "update.fallback" event
// report.
type fallback string

func (f fallback) Error() string { return "incremental update falls back: " + string(f) }

// updateStages is an incremental update: the repair stages, then the shared
// pipeline from coarse on.
var updateStages = append([]stage{{"identify", identifyRepair}, {"election", electionRepair},
	{"voronoi", voronoiRepair}}, stages[2:]...)

// update is one Update call's incremental context: what the repair stages
// hand on to each other and to the shared stages. It lives for one call.
type update struct {
	ix   *IncrementalExtractor
	prev *Result
	// flipped lists the nodes whose alive status changed (newlyDead is its
	// removal prefix), patched the nodes whose adjacency windows were
	// rebuilt.
	flipped, newlyDead, patched []int32

	horizon int     // dirty-region radius: maxR + L + scope
	wring   int     // index ring radius: maxR + L
	queue   []int32 // the horizon BFS, in visit order

	rep    vrepair      // the voronoi fixpoint; its dirty list feeds coarse
	splice coarseSplice // coarse: the previous edges' reuse test
}

// update runs the incremental path, or the full pipeline when the state
// cannot be patched or a repair stage falls back.
func (ix *IncrementalExtractor) update(span *obs.Span, u *update) (*Result, error) {
	var reason fallback
	switch {
	case !ix.valid:
		// A previous full extraction failed (e.g. ErrNoSites at high
		// churn); retry it — the state is only usable once it succeeds.
		reason = "stale-state"
	case ix.prev.Stats.ElectionRounds > 1:
		// The last full run needed the min-site radius loop; the scoped
		// re-election only replicates single-round elections.
		reason = "multi-round-election"
	default:
		u.prev = ix.prev
		rs := &runState{e: ix.e, g: ix.e.g, p: ix.p, stats: newStats(), upd: u,
			res: &Result{Params: ix.p, EffectiveK: u.prev.EffectiveK, EffectiveScope: u.prev.EffectiveScope}}
		ix.fcache.notePatched(u.patched)
		err := rs.runStages(span, updateStages)
		u.rep.release()
		if err == nil {
			rs.res.Stats = rs.stats
			ix.prev = rs.res
			return rs.res, nil
		}
		var ok bool
		if reason, ok = err.(fallback); !ok {
			return nil, err
		}
	}
	ix.last.Fallback = true
	ix.last.FallbackReason = string(reason)
	span.Event("update.fallback", obs.Str("reason", string(reason)))
	return ix.runFull()
}

// identifyRepair recomputes the ball rows, centrality sums and index values
// the churn batch can have changed: those within base-graph distance maxR,
// and maxR+L, of a flip.
func identifyRepair(rs *runState) error {
	e, u, p, res := rs.e, rs.upd, rs.p, rs.res
	g := e.g
	n := g.N()
	sc := &e.inc
	acquire, release := e.getWalker, e.putWalker
	maxR, kEff := e.ballW, res.EffectiveK
	// A single-round election makes the outcome counters a full run would
	// report known up front.
	rs.stats.ElectionRounds = 1
	rs.stats.KAdjustments = p.K - kEff
	rs.stats.ScopeAdjustments = p.Scope() - res.EffectiveScope

	// Dirty-region horizon: base-graph (pre-churn superset) BFS from the
	// flipped nodes. Every quantity recomputed below changes only within a
	// bounded base-distance of a flip — see DESIGN.md for the per-ring
	// arguments — so ring membership is read straight off this pass.
	u.horizon = maxR + p.L + res.EffectiveScope
	distD := sc.distD
	for i := range distD {
		distD[i] = graph.Unreachable
	}
	queue := sc.list[:0]
	for _, v := range u.flipped {
		if distD[v] < 0 {
			distD[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := distD[v]
		if int(dv) >= u.horizon {
			continue
		}
		for _, w := range g.BaseNeighbors(v) {
			if distD[w] < 0 {
				distD[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	u.queue = queue

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
		if d := int(distD[v]); d >= 0 && d <= maxR {
			srcs = append(srcs, v)
			if d <= p.L {
				fresh = append(fresh, v)
			}
		}
	}
	sc.srcs, sc.fresh = srcs, fresh
	e.countSaturation(p, srcs, -1)
	g.BatchBallSizesInto(maxR, srcs, e.balls, acquire, release)
	e.countSaturation(p, srcs, +1)

	// The saturation guards are global order statistics; if either radius
	// would resolve differently on the mutated graph, the whole field needs
	// rebuilding. The engine's counts, seeded by the last full run's
	// identify, are kept in lockstep with the ball rows above, so resolving
	// off them is identify's own resolution on the full matrix.
	if radiusFromCounts(e.satK, p.K, n) != kEff ||
		radiusFromCounts(e.satS, p.Scope(), n) != res.EffectiveScope {
		return fallback("radius-drift")
	}

	// The sources whose khop changed, with the integer differences the
	// centrality delta pass below propagates.
	khop := slices.Clone(u.prev.KHopSize)
	pushed, delta := sc.pushed[:0], sc.delta[:0]
	for _, v := range srcs {
		k := e.ball(int(v), kEff)
		if d := k - khop[v]; d != 0 {
			pushed = append(pushed, v)
			delta = append(delta, d)
			khop[v] = k
		}
	}
	sc.pushed, sc.delta = pushed, delta

	// Centrality and index within maxR+L of a flip.
	u.wring = maxR + p.L
	wlist := sc.elist[:0]
	for _, v := range queue {
		if int(distD[v]) <= u.wring {
			wlist = append(wlist, v)
		}
	}
	sc.elist = wlist
	// Delta-patch the engine's sums instead of re-flooding the whole ring.
	// N_L membership can only change within L of a flip (an entering or
	// leaving member needs an old- or new-graph path of length <= L through
	// a flipped node), so those sums are rebuilt fresh; every other affected
	// sum moves by exactly the khop deltas of the ball-ring nodes within L
	// of it. Each changed source pushes its delta to every node within L,
	// 64 sources per pass; the fresh pass then overwrites the sums within L
	// of a flip, whatever the push added to them. All arithmetic stays
	// integer, and indexOf is the full path's division.
	g.PushSumsInto(p.L, pushed, delta, e.wsums, acquire, release)
	g.BallWeightedSumsInto(graph.KernelBatched, p.L, khop, e.wsums, acquire, release, fresh...)
	cent, index := slices.Clone(u.prev.LCentrality), slices.Clone(u.prev.Index)
	for _, v := range wlist {
		cent[v], index[v] = indexOf(khop[v], e.wsums[v], e.ball(int(v), p.L))
	}
	res.KHopSize, res.LCentrality, res.Index = khop, cent, index

	if rs.e.span.Enabled() {
		rs.annotate(obs.Int("balls", len(srcs)), obs.Int("fresh", len(fresh)),
			obs.Int("pushed", len(pushed)), obs.Int("horizon", u.horizon))
	}
	return nil
}

// electionRepair re-elects within maxR+L+scope of a flip (index values an
// election reads live one scope-ball away from the last changed index),
// patching the engine's election flags.
func electionRepair(rs *runState) error {
	e, u, res := rs.e, rs.upd, rs.res
	g := e.g
	sc := &e.inc
	elist := sc.elist
	for _, v := range u.queue {
		if d := int(sc.distD[v]); d > u.wring && d <= u.horizon {
			elist = append(elist, v)
		}
	}
	sc.elist = elist
	isSite, index, scope := e.bools, res.Index, res.EffectiveScope
	dead := g.DeadMask()
	graph.ParallelRange(g, len(elist), e.getWalker, e.putWalker, func(w *graph.Walker, i int) {
		isSite[elist[i]] = isLocalMax(w, elist[i], index, scope, dead)
	})
	sites := sitesOf(isSite)
	if len(sites) < minSites(g.N()) {
		return fallback("min-sites")
	}
	// Site diff against the previous election (both lists ascending).
	prevSites := u.prev.Sites
	addS, rmS := sc.addS[:0], sc.rmS[:0]
	for i, j := 0, 0; i < len(prevSites) || j < len(sites); {
		switch {
		case j == len(sites) || (i < len(prevSites) && prevSites[i] < sites[j]):
			rmS = append(rmS, prevSites[i])
			i++
		case i == len(prevSites) || sites[j] < prevSites[i]:
			addS = append(addS, sites[j])
			j++
		default:
			i++
			j++
		}
	}
	sc.addS, sc.rmS = addS, rmS
	res.Sites = sites
	rs.stats.Sites = len(sites)
	if rs.e.span.Enabled() {
		rs.annotate(obs.Int("sites", len(sites)),
			obs.Int("gained", len(addS)), obs.Int("lost", len(rmS)))
	}
	return nil
}

// voronoiRepair rebuilds the Voronoi records of the dirty region by a
// fixpoint repair, then derives the cell assignments of the repaired nodes.
func voronoiRepair(rs *runState) error {
	e, u, p, res := rs.e, rs.upd, rs.p, rs.res
	g := e.g
	n := g.N()
	sc := &e.inc
	prevRec := u.prev.Records
	ndist := slices.Clone(u.prev.DistToSite)
	nrec := slices.Clone(prevRec)

	r := &u.rep
	*r = vrepair{
		g: g, alpha: p.Alpha, sc: sc,
		dirty: sc.dirty, list: sc.list[:0],
		ndist: ndist, nrec: nrec,
		prevRec: prevRec, prevDmin: u.prev.DistToSite,
		sites: res.Sites,
	}
	// Seed the dirty set: flipped nodes, rebuilt adjacency windows (their
	// sorted-neighbor parent scans changed), the zones of removed or
	// de-elected sites, newly elected sites, and — for distance increases —
	// the record-descendants of newly dead nodes.
	for _, v := range u.patched {
		r.markDirty(v)
	}
	for _, v := range u.flipped {
		r.markDirty(v) // dead nodes are not in patched's alive filter
	}
	if len(sc.rmS) > 0 {
		rmMark := sc.rmMark
		for _, s := range sc.rmS {
			rmMark[s] = true
		}
		for v := 0; v < n; v++ {
			if r.dirty[v] {
				continue
			}
			for _, rec := range prevRec[v] {
				if rmMark[rec.Site] {
					r.markDirty(int32(v))
					break
				}
			}
		}
		for _, s := range sc.rmS {
			rmMark[s] = false
		}
	}
	for _, s := range sc.addS {
		r.markDirty(s)
	}
	// Dead-node closure: a broken recorded parent chain can only raise
	// distances, and every broken chain passes through a newly dead node,
	// so dirty the downstream record-trees of exactly those.
	closure := append(sc.bv[:0], u.newlyDead...)
	for head := 0; head < len(closure); head++ {
		w := closure[head]
		for _, c := range g.BaseNeighbors(w) {
			if !g.Alive(c) || r.dirty[c] {
				continue
			}
			for _, rec := range prevRec[c] {
				if rec.Parent == w {
					r.markDirty(c)
					closure = append(closure, c)
					break
				}
			}
		}
	}
	sc.bv = closure[:0]

	// Hand over to the full stage where the repair stops paying: one serial
	// flood per cell to re-flood costs more than the batched stage's
	// 64-sites-per-pass floods once over half the cells need one, and a
	// fixpoint still growing past the attempt bound is no cheaper.
	var recompute string
	for {
		r.attempts++
		r.grown = false
		for _, v := range r.list {
			r.nrec[v] = r.nrec[v][:0]
		}
		r.repairDmin()
		r.collectBoundary()
		r.collectSites()
		if 2*len(r.rs) > len(r.sites) {
			recompute = "cells"
			break
		}
		if r.attempts > maxRepairAttempts {
			recompute = "attempts"
			break
		}
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
	cells := len(r.rs)
	if recompute != "" {
		if err := r.recompute(rs); err != nil {
			return err
		}
		cells = len(r.sites)
	} else {
		// Commit: derive cell assignments from the repaired records.
		ncell := slices.Clone(u.prev.CellOf)
		for _, v := range r.list {
			ncell[v], ndist[v] = nearestSite(nrec[v])
		}
		res.CellOf, res.DistToSite, res.Records = ncell, ndist, nrec
	}
	last := &u.ix.last
	last.DirtyNodes = len(r.list)
	last.DirtyFraction = float64(len(r.list)) / float64(n)
	last.RepairedCells = cells
	last.Attempts = r.attempts
	last.Recompute = recompute
	u.splice = coarseSplice{prev: u.prev.Edges, dirty: sc.dirty, distD: sc.distD, wring: u.wring}
	if rs.e.span.Enabled() {
		rs.annotate(obs.Int("dirty", len(r.list)), obs.Int("cells", cells),
			obs.Int("attempts", r.attempts), obs.Str("recompute", recompute))
	}
	return nil
}

// recompute hands the update's Voronoi stage over to the full pipeline's
// own stage function, which writes fresh cells, distances and records into
// the result, then lists as dirty exactly the nodes whose record row
// changed: those are the rows patchTuples swaps and coarseSplice must not
// reuse (a node's cell and distance derive from its row).
func (r *vrepair) recompute(rs *runState) error {
	for _, v := range r.list {
		r.dirty[v] = false
	}
	r.list = r.list[:0]
	if err := voronoiStage(rs); err != nil {
		return err
	}
	for v, row := range rs.res.Records {
		if !slices.Equal(row, r.prevRec[v]) {
			r.dirty[v] = true
			r.list = append(r.list, int32(v))
		}
	}
	return nil
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
	reused int        // SiteEdges handed back, summed over the pair chunks
}

// cursor returns the index of the first previous edge whose pair is not
// below pr: where a chunk of the pair walk starting at pr begins its
// monotone walk through prev.
func (s *coarseSplice) cursor(pr SitePair) int {
	return sort.Search(len(s.prev), func(i int) bool { return !lessPair(s.prev[i].Pair, pr) })
}

// reuse returns the previous SiteEdge of pair pr if it can be kept
// verbatim, else nil. Within one chunk pairs must arrive in ascending
// order; *pi is the chunk's cursor into prev, seeded by cursor. Same
// segment count with every current segment clean forces identical segment
// lists (clean records are unchanged, so current tuples are a subset of
// the previous ones), and a fully clean path pins the reverse-path walk.
// reuse only reads the splice, so chunks may call it concurrently.
func (s *coarseSplice) reuse(pi *int, pr SitePair, segs []int32) *SiteEdge {
	i := *pi
	for i < len(s.prev) && lessPair(s.prev[i].Pair, pr) {
		i++
	}
	*pi = i
	if i == len(s.prev) || s.prev[i].Pair != pr || s.prev[i].SegmentCount != len(segs) {
		return nil
	}
	for _, v := range segs {
		if s.dirty[v] || (s.distD[v] >= 0 && int(s.distD[v]) <= s.wring) {
			return nil
		}
	}
	pe := &s.prev[i]
	for _, x := range pe.Path {
		if s.dirty[x] {
			return nil
		}
	}
	return pe
}

// patchTuples maintains the engine's sorted (pair, segment node) tuple
// array, which the coarse splice groups over. The full run that seeded the
// state left it sorted over the previous records; an update deletes the
// previous tuples of repaired nodes and merges in their rebuilt ones —
// clean record rows are shared between consecutive results, so every other
// tuple is unchanged by construction. The merge keeps the array in
// (A, B, v) order without re-sorting it. It reports false, leaving the
// coarse stage to rebuild the array, when a deletion has no counterpart:
// the array diverged from the records (must not happen).
func (u *update) patchTuples(nrec [][]SiteDist) bool {
	e := u.ix.e
	sc := &e.inc
	del, add := sc.delT[:0], sc.addT[:0]
	for _, v := range u.rep.list {
		del = appendPairTuples(del, u.prev.Records[v], v)
		add = appendPairTuples(add, nrec[v], v)
	}
	sortPairSegs(del, &e.pairTmp)
	sortPairSegs(add, &e.pairTmp)
	sc.delT, sc.addT = del, add
	old := e.pairBuf
	out := sc.mergeT[:0]
	j, k := 0, 0
	for i := 0; i < len(old); i++ {
		for k < len(add) && comparePairSeg(add[k], old[i]) < 0 {
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
		sc.mergeT = out[:0]
		return false
	}
	e.pairBuf, sc.mergeT = out, old[:0]
	return true
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
	mergeT    []pairSeg // splice merge target, swapped with the engine's pairBuf
	rmMark    []bool    // removed-site mark
	addS      []int32   // gained sites
	rmS       []int32   // lost sites
	elist     []int32   // centrality/election ring
}

func (s *incScratch) ensure(n int) {
	s.distD = grow(s.distD, n)
	s.dirty = grow(s.dirty, n)
	s.settled = grow(s.settled, n)
	s.fdist = grow(s.fdist, n)
	s.fstamp = grow(s.fstamp, n)
	s.checked = grow(s.checked, n)
	s.smark = grow(s.smark, n)
	s.sslot = grow(s.sslot, n)
	s.rmMark = grow(s.rmMark, n)
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
// not necessarily small (10-node batches on a 10^5 field re-flood ~60 of
// ~560 cells), so each attempt is kept linear in the dirty nodes and
// boundary records:
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
// flags for the next update; a repair that never started holds none.
func (r *vrepair) release() {
	if r.sc == nil {
		return
	}
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
	injV, injD := grow(sc.injV, total), grow(sc.injD, total)
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
					if rw, ok := recordFor(r.nrec, w, rec.Site); ok {
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
			if nr, ok := recordFor(r.nrec, v, rp.Site); ok && nr.D == rp.D {
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

// endFloodCache caches the refine stage's end-node cluster floods across
// incremental updates. An entry is the exact node set of one end's
// skeleton-avoiding flood of the junction radius (the end itself plus every
// node the bounded batch kernel settles for it); it stays valid while no
// flood-visible change — a skeleton-mask flip or a rebuilt adjacency
// window — lands on the set or its one-hop neighborhood (the flood reads
// adjacency of visited nodes and mask of visited nodes plus their
// neighbors). Claim replay over cached sets yields
// the same cluster partition as re-flooding: the partition is a pure
// function of the per-end node sets.
type endFloodCache struct {
	radius   int32
	prevMask []bool
	entries  map[int32]floodSet
	patched  []int32
	poison   []int32
	epoch    int32
	// sets collects one batch's per-source node lists (see fill).
	sets [64][]int32
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

// fill floods the ends missing from the cache through the engine's
// wave-bounded end floods and caches each one's node set: the end first
// (the kernel does not report seeds), then its settles. It returns the
// number of ends flooded.
func (c *endFloodCache) fill(e *Extractor, ends []endRef, radius int32, mask []bool) int {
	var miss []int32
	for _, er := range ends {
		if _, ok := c.entries[er.node]; !ok {
			c.entries[er.node] = floodSet{} // claimed; filled below
			miss = append(miss, er.node)
		}
	}
	if len(miss) == 0 {
		return 0
	}
	sets := &c.sets
	e.endFloods(miss, radius, mask, func(lo int, log []graph.VisitEvent) {
		srcs := miss[lo:min(lo+len(sets), len(miss))]
		for i, src := range srcs {
			sets[i] = append(sets[i][:0], src)
		}
		for _, ev := range log {
			for b := ev.Bits; b != 0; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				sets[i] = append(sets[i], ev.V)
			}
		}
		for i, src := range srcs {
			c.entries[src] = makeFloodSet(sets[i])
		}
	})
	return len(miss)
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
