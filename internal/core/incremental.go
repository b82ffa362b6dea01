// Incremental re-extraction under churn. An IncrementalExtractor keeps its
// latest Result and the engine scratch of the full run that seeded it (ball
// matrix, centrality sums, election flags, sorted coarse tuples) and, given
// a batch of node removals and revivals, repairs exactly the dirty region
// instead of re-running the pipeline from scratch. An update is a run of
// the engine's stage runner: three repair stages replace identify and
// voronoi, and the shared coarse, refine and boundary stages follow, coarse
// with the update's caches.
//
//   - identify: base-graph BFS rings around the churn batch bound which ball
//     rows (radius maxR), centrality/index values (maxR+L) and election
//     outcomes (maxR+L+scope) can have changed; only those are recomputed.
//     One batched flood of the ball ring, 64 Z-ordered sources per MS-BFS
//     pass, rewrites the ball rows and patches the centrality sums: each
//     ring node pushes its K-ball size's change within L, and each sum
//     within L of a flip is rebuilt from the old sizes over its new L-ball
//     plus those changes.
//   - election: the local-maximum test re-runs within maxR+L+scope.
//   - voronoi: one pass over the dirty node set — a dial (bucket)
//     multi-source BFS re-derives dmin with clean-boundary injections, then
//     the full stage's batched pruned flood re-floods the whole zone of
//     every dirty site and every site recorded next to the dirty region,
//     and the fresh records rebuild the rows; a clean node whose row
//     changes joins the dirty set (see DESIGN.md for why one pass is
//     exact).
//   - coarse: the sorted segment tuples are patched (patchTuples), and
//     pairs whose segment lists, paths and two-hop surroundings are
//     untouched reuse the previous SiteEdge verbatim (coarseSplice); only
//     dirty pairs recompute connector, paths and band end nodes.
//   - refine: rerun in full, as a full extraction runs it; its end-node
//     clustering is one multi-source BFS (clusterEnds).
//   - boundary: recomputed outright over the counting-pass median.
//
// Every pipeline rule — the index division, the local-maximum test, the
// connector walk, loop classification and pruning, the saturation counts
// and the nearest-site rule — is the full pipeline's own function. The
// update owns only the dirty-region search, the dmin repair and row
// rebuild around the shared record kernel, the delta-patched centrality
// sums and its caches (patchTuples, coarseSplice).
//
// Correctness is pinned by equivalence: every Update result is bit-identical
// to a from-scratch Extract on the mutated graph (see incremental_test.go).
// When the previous full extraction failed (stale state), the previous
// election was multi-round, a guard radius drifts, or the site population
// collapses, the update falls back to a full extraction transparently;
// otherwise a batch of any size stays incremental.
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

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
	// Attempts counts Voronoi repair passes: 1 on every incremental
	// update, since the repair is one pass.
	Attempts int
	// Fallback reports that this update ran the whole pipeline from
	// scratch instead of the incremental path, and why: "stale-state",
	// "multi-round-election", "radius-drift" or "min-sites".
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

	last  UpdateStats
	valid bool
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
// later updates (clean record rows are shared with the previous result,
// which is safe because results are never mutated). A node ID outside
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

	rep    vrepair      // the Voronoi repair; its dirty list feeds coarse
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

	// The ball ring: nodes within maxR of a flip, taken along the graph's
	// batch order so each 64-source MS-BFS pass floods one compact patch;
	// the horizon BFS order would interleave the flips' neighborhoods and
	// leave a pass's balls barely overlapping. One batched flood of the
	// ring rewrites its rows and patches the sums (graph.SumRepair): only
	// ring nodes can have a new K-ball, and only nodes within L of a flip a
	// new L-ball.
	srcs := sc.srcs[:0]
	order := g.BatchOrder()
	for i := range distD {
		v := int32(i)
		if order != nil {
			v = order[i]
		}
		if d := int(distD[v]); d >= 0 && d <= maxR {
			srcs = append(srcs, v)
		}
	}
	sc.srcs = srcs
	e.countSaturation(p, srcs, -1)
	prevK := u.prev.KHopSize
	sc.rep = graph.SumRepair{K: kEff, L: p.L, Sums: e.wsums, Old: prevK, Dist: distD}
	g.BatchBallSizesInto(maxR, srcs, e.balls, &sc.rep, acquire, release)
	sc.rep = graph.SumRepair{}
	e.countSaturation(p, srcs, +1)
	khop, changed := slices.Clone(prevK), 0
	for _, v := range srcs {
		khop[v] = e.ball(int(v), kEff)
		if khop[v] != prevK[v] {
			changed++
		}
	}

	// The saturation guards are global order statistics; if either radius
	// would resolve differently on the mutated graph, the whole field needs
	// rebuilding. The engine's counts, seeded by the last full run's
	// identify, are kept in lockstep with the ball rows above, so resolving
	// off them is identify's own resolution on the full matrix.
	if radiusFromCounts(e.satK, p.K, n) != kEff ||
		radiusFromCounts(e.satS, p.Scope(), n) != res.EffectiveScope {
		return fallback("radius-drift")
	}

	// Centrality and index within maxR+L of a flip.
	u.wring = maxR + p.L
	wlist := sc.elist[:0]
	for _, v := range queue {
		if int(distD[v]) <= u.wring {
			wlist = append(wlist, v)
		}
	}
	sc.elist = wlist
	cent, index := slices.Clone(u.prev.LCentrality), slices.Clone(u.prev.Index)
	for _, v := range wlist {
		cent[v], index[v] = indexOf(khop[v], e.wsums[v], e.ball(int(v), p.L))
	}
	res.KHopSize, res.LCentrality, res.Index = khop, cent, index

	if rs.e.span.Enabled() {
		rs.annotate(obs.Int("balls", len(srcs)), obs.Int("changed", changed),
			obs.Int("horizon", u.horizon))
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

// voronoiRepair rebuilds the Voronoi records of the dirty region in one
// pass: seed the dirty set, repair dmin over it, re-flood the whole pruned
// zone of every site that can reach it with the full stage's batched
// kernel, and rebuild the rows from the fresh records (see DESIGN.md for
// why one pass is exact).
func voronoiRepair(rs *runState) error {
	e, u, p, res := rs.e, rs.upd, rs.p, rs.res
	g := e.g
	n := g.N()
	sc := &e.inc
	prevRec := u.prev.Records

	r := &u.rep
	*r = vrepair{
		g: g, sc: sc,
		dirty: sc.dirty, list: sc.list[:0],
		ndist: slices.Clone(u.prev.DistToSite), nrec: slices.Clone(prevRec),
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
	// A lost site's zone is its previous record tree, walked from the site
	// through dead members too (a child names its parent in its record).
	closure := sc.closure[:0]
	for _, s := range sc.rmS {
		closure = append(closure[:0], s)
		for head := 0; head < len(closure); head++ {
			w := closure[head]
			r.markDirty(w)
			for _, c := range g.BaseNeighbors(w) {
				for _, rec := range prevRec[c] {
					if rec.Site == s && rec.Parent == w {
						closure = append(closure, c)
						break
					}
				}
			}
		}
	}
	for _, s := range sc.addS {
		r.markDirty(s)
	}
	// Dead-node closure: a broken recorded parent chain can only raise
	// distances, and every broken chain passes through a newly dead node,
	// so dirty the downstream record-trees of exactly those. The closure
	// runs on its own stamp and follows record-children through nodes that
	// are already dirty (a patched window is dirty before it runs), so
	// every clean node it leaves has an intact chain and an exact dmin.
	sc.epoch++
	ep := sc.epoch
	closure = append(closure[:0], u.newlyDead...)
	for head := 0; head < len(closure); head++ {
		w := closure[head]
		for _, c := range g.BaseNeighbors(w) {
			if !g.Alive(c) || sc.checked[c] == ep {
				continue
			}
			for _, rec := range prevRec[c] {
				if rec.Parent == w {
					sc.checked[c] = ep
					r.markDirty(c)
					closure = append(closure, c)
					break
				}
			}
		}
	}
	sc.closure = closure[:0]

	r.repairDmin()
	r.collectSites()
	r.reflood(e, p.Alpha)
	ncell := slices.Clone(u.prev.CellOf)
	for _, v := range r.list {
		ncell[v], r.ndist[v] = nearestSite(r.nrec[v])
	}
	res.CellOf, res.DistToSite, res.Records = ncell, r.ndist, r.nrec

	last := &u.ix.last
	last.DirtyNodes = len(r.list)
	last.DirtyFraction = float64(len(r.list)) / float64(n)
	last.RepairedCells = len(r.rs)
	last.Attempts = 1
	u.splice = coarseSplice{prev: u.prev.Edges, dirty: sc.dirty, distD: sc.distD, wring: u.wring}
	if rs.e.span.Enabled() {
		rs.annotate(obs.Int("dirty", len(r.list)), obs.Int("cells", len(r.rs)))
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
// dirty queue and flags, the dial buckets of the dmin repair, the stamps,
// the re-flood's per-node record groups, the ring source lists. The churn
// tombstone bitmap itself lives on the graph overlay. None of this escapes
// into results.
type incScratch struct {
	distD   []int32         // base-graph distance from the churn batch
	seeds   []int32         // flipped-node buffer
	patched []int32         // rebuilt-window union of the batch
	dirty   []bool          // voronoi dirty flags (cleared after each update)
	list    []int32         // dirty queue / horizon BFS queue
	buckets [][]int32       // dial queue of the dmin repair
	settled []int32         // dmin repair settle stamps
	checked []int32         // flip dedup and dead-node closure stamps
	smark   []int32         // re-flooded site stamps
	epoch   int32           // shared stamp epoch
	closure []int32         // dead-node closure queue
	rs      []int32         // sites to re-flood
	fcnt    []int32         // fresh records per node (zero between updates)
	fend    []int32         // end of each node's group in frec
	touched []int32         // nodes holding fresh records
	frec    []SiteDist      // fresh records, grouped by node
	rowBuf  []SiteDist      // a clean node's merged row
	srcs    []int32         // ball-ring sources, in batch order
	rep     graph.SumRepair // the ring flood's sums repair (cleared after it)
	delT    []pairSeg       // coarse tuples dropped by the splice merge
	addT    []pairSeg       // coarse tuples added by the splice merge
	mergeT  []pairSeg       // splice merge target, swapped with the engine's pairBuf
	addS    []int32         // gained sites
	rmS     []int32         // lost sites
	elist   []int32         // centrality/election ring
}

func (s *incScratch) ensure(n int) {
	s.distD = grow(s.distD, n)
	s.dirty = grow(s.dirty, n)
	s.settled = grow(s.settled, n)
	s.checked = grow(s.checked, n)
	s.smark = grow(s.smark, n)
	s.fcnt = grow(s.fcnt, n)
	s.fend = grow(s.fend, n)
	if s.epoch > 1<<30 {
		// Stamp wrap: epochs are shared across updates; reset well before
		// int32 overflow.
		for i := range s.settled {
			s.settled[i], s.checked[i], s.smark[i] = 0, 0, 0
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

// vrepair is the Voronoi repair of one update. The dmin repair is a serial
// dial (bucket) BFS, so mixed-depth boundary injections settle in exact
// distance order; the records come from one batched re-flood of the
// affected sites' zones.
type vrepair struct {
	g  *graph.Graph
	sc *incScratch

	dirty []bool
	list  []int32

	ndist []int32      // repaired dmin (dirty entries valid after repairDmin)
	nrec  [][]SiteDist // repaired records (dirty rows rebuilt by reflood)

	prevRec  [][]SiteDist // retained records (clean rows stay exact)
	prevDmin []int32      // retained dmin

	sites []int32 // the new site list, ascending
	rs    []int32 // sites to re-flood, in discovery order
	rsEp  int32   // the smark epoch marking rs
}

// markDirty moves a node into the dirty set, dropping its retained record
// row (the repair rebuilds it).
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

// repairDmin recomputes dmin over the dirty set: dirty sites seed at 0,
// and every clean->dirty edge injects the clean side's retained distance
// plus one (retained values are exact for clean nodes — any node whose
// distance could rise is dirty by the seeding rules). When a wave reaches
// a clean node strictly below its retained distance the region grows and
// the flood continues through it in flight; distances settle in Dijkstra
// order either way.
func (r *vrepair) repairDmin() {
	sc := r.sc
	sc.epoch++
	ep := sc.epoch
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
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

// collectSites gathers the sites whose pruned zones can change or reach
// the dirty region: the dirty sites plus every site recorded at a clean
// node next to a dirty one (a zone is connected, so a clean site's zone
// reaches the region only across such a node), stamped with rsEp.
func (r *vrepair) collectSites() {
	sc := r.sc
	sc.epoch++
	ep := sc.epoch
	r.rs, r.rsEp = sc.rs[:0], ep
	claim := func(s int32) {
		if sc.smark[s] != ep {
			sc.smark[s] = ep
			r.rs = append(r.rs, s)
		}
	}
	for _, s := range r.sites {
		if r.dirty[s] {
			claim(s)
		}
	}
	for _, v := range r.list {
		for _, u := range r.g.Neighbors(int(v)) {
			if !r.dirty[u] {
				for _, rec := range r.prevRec[u] {
					claim(rec.Site)
				}
			}
		}
	}
}

// reflood re-floods the whole pruned zone of every rs site over the
// repaired dmin through the full stage's kernel, in Z-ordered 64-site
// batches, and rebuilds the record rows from the fresh records. A dirty
// node's row is its fresh records. A clean node's row is its retained
// records of the sites outside rs merged with its fresh ones; when that
// differs from the retained row, the node joins the dirty set (its dmin is
// already exact, so nothing else needs redoing). Every rebuilt row is its
// own allocation: rows outlive the update one by one, and a shared arena
// would stay alive for as long as any one of its rows does.
func (r *vrepair) reflood(e *Extractor, alpha int32) {
	sc, g := r.sc, r.g
	// Z-sort the sites as the full stage does.
	srt := r.rs
	if zorder := g.BatchOrder(); zorder != nil {
		srt = e.vorSites[:0]
		for _, v := range zorder {
			if sc.smark[v] == r.rsEp {
				srt = append(srt, v)
			}
		}
		e.vorSites = srt
	}
	visits := e.prunedFloods(srt, r.ndist, alpha, nil)

	// Group the fresh records by node: every rs site seeds its own record,
	// then the settles follow; each group is ordered by site.
	cnt, end := sc.fcnt, sc.fend
	touched := sc.touched[:0]
	total := len(r.rs)
	for _, vis := range visits {
		total += len(vis)
	}
	frec := grow(sc.frec, total)
	count := func(v int32) {
		if cnt[v] == 0 {
			touched = append(touched, v)
		}
		cnt[v]++
	}
	for _, s := range r.rs {
		count(s)
	}
	for _, vis := range visits {
		for _, pv := range vis {
			count(pv.V)
		}
	}
	off := int32(0)
	for _, v := range touched {
		end[v] = off
		off += cnt[v]
	}
	for _, s := range r.rs {
		frec[end[s]] = SiteDist{Site: s, D: 0, Parent: s}
		end[s]++
	}
	for _, vis := range visits {
		for _, pv := range vis {
			frec[end[pv.V]] = SiteDist{Site: pv.Src, D: pv.D, Parent: pv.Parent}
			end[pv.V]++
		}
	}
	group := func(v int32) []SiteDist { return frec[end[v]-cnt[v] : end[v]] }
	for _, v := range touched {
		sortBySite(group(v))
	}

	// Rows: the dirty nodes' first, since clean nodes join the list below.
	for _, v := range r.list {
		if cnt[v] > 0 {
			r.nrec[v] = slices.Clone(group(v))
		}
	}
	merged := sc.rowBuf
	for _, v := range touched {
		if r.dirty[v] {
			continue
		}
		merged = mergeRow(merged[:0], r.prevRec[v], group(v), sc.smark, r.rsEp)
		if !slices.Equal(merged, r.prevRec[v]) {
			r.markDirty(v)
			r.nrec[v] = slices.Clone(merged)
		}
	}
	for _, v := range touched {
		cnt[v] = 0
	}
	sc.touched, sc.frec, sc.rowBuf = touched[:0], frec[:0], merged[:0]
}

// mergeRow appends to dst the retained records of old whose site is not
// stamped ep in mark, merged by site with the fresh records.
func mergeRow(dst, old, fresh []SiteDist, mark []int32, ep int32) []SiteDist {
	i := 0
	for _, rec := range old {
		if mark[rec.Site] == ep {
			continue
		}
		for i < len(fresh) && fresh[i].Site < rec.Site {
			dst = append(dst, fresh[i])
			i++
		}
		dst = append(dst, rec)
	}
	return append(dst, fresh[i:]...)
}
