package core

import (
	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// Saturation guard thresholds: the fraction of the network a typical K-hop
// (resp. scope) ball may cover before the radius is reduced. When balls
// approach the network size — dense graphs, heavy-tailed radio models —
// neighborhood sizes stop discriminating and the index degenerates to a
// constant, so radii are shrunk until the counts are informative again.
const (
	kSaturationFraction     = 1.0 / 3
	scopeSaturationFraction = 1.0 / 6
)

// identify runs Phase 1 (Sec. III-A): every node computes its K-hop
// neighborhood size, its L-centrality and its index; nodes whose index is
// locally maximal within the scope radius become critical skeleton nodes.
// st, when non-nil, accumulates the phase's work counters.
//
// This is the centralized analogue of the two rounds of controlled
// flooding; package protocol implements the same computation as true node
// programs and the two are cross-checked in tests. Centrally one flood
// serves both rounds: the ball-sizing sweep also pushes the centrality
// sums, and only a guard that moves K off p.K, or K > L, costs a second
// (weighted) sweep.
func (e *Extractor) identify(p Params, st *Stats) (khop []int, cent []float64, index []float64, sites []int32, kEff, scopeEff int) {
	g := e.g
	n := g.N()
	// The centrality pass reads |N_L| off the ball matrix instead of
	// counting during a walk, so the matrix must reach L as well.
	maxR := max(p.K, p.Scope(), p.L)
	sumsK := e.ballSizes(p, maxR)

	kEff, scopeEff = e.saturationRadii(p)
	if st != nil {
		st.KAdjustments += p.K - kEff
		st.ScopeAdjustments += p.Scope() - scopeEff
	}
	if kEff < p.K {
		e.event("guard.adjust", obs.Str("kind", "k-saturation"), obs.Int("from", p.K), obs.Int("to", kEff))
	}
	if scopeEff < p.Scope() {
		e.event("guard.adjust", obs.Str("kind", "scope-saturation"), obs.Int("from", p.Scope()), obs.Int("to", scopeEff))
	}

	khop = make([]int, n)
	for v := range khop {
		khop[v] = e.ball(v, kEff)
	}

	// When hop balls outgrow the field's structural features (very dense or
	// heavy-tailed radio graphs), the index becomes a near-global gradient
	// with a single maximum. Shrink the scope, then K, until a minimal site
	// population elects; elections are cheap compared to the ball sweeps.
	cent = make([]float64, n)
	index = make([]float64, n)
	round := 0
	for {
		e.indexField(p, khop, sumsK != kEff, cent, index)
		sumsK = kEff
		sites = e.electSites(index, scopeEff)
		round++
		e.event("election", obs.Int("round", round), obs.Int("sites", len(sites)),
			obs.Int("k", kEff), obs.Int("scope", scopeEff))
		if st != nil {
			st.ElectionRounds++
		}
		if len(sites) >= minSites(n) {
			break
		}
		switch {
		case scopeEff > 1:
			scopeEff--
			e.event("guard.adjust", obs.Str("kind", "scope-min-sites"), obs.Int("to", scopeEff))
			if st != nil {
				st.ScopeAdjustments++
			}
		case kEff > 1:
			kEff--
			scopeEff = p.Scope()
			if scopeEff > kEff {
				scopeEff = kEff
			}
			e.event("guard.adjust", obs.Str("kind", "k-min-sites"), obs.Int("to", kEff))
			if st != nil {
				st.KAdjustments++
			}
			for v := range khop {
				khop[v] = e.ball(v, kEff)
			}
		default:
			return khop, cent, index, sites, kEff, scopeEff
		}
	}
	return khop, cent, index, sites, kEff, scopeEff
}

// ballSizes fills the engine's ball matrix, one flat int32 row of maxR
// cumulative ball sizes per node (see ball); it stays valid until the next
// Extract or Bind call. When K <= L the same MS-BFS passes push the
// centrality sums of the K column into e.wsums and sumsK is p.K; when
// K > L the K-ball sizes are not final once a batch has settled L hops,
// nothing is pushed and sumsK is 0.
func (e *Extractor) ballSizes(p Params, maxR int) (sumsK int) {
	n := e.g.N()
	e.ballW = maxR
	e.balls = grow(e.balls, n*maxR)
	e.wsums = grow(e.wsums, n)
	if e.g.BallSizesAndSumsInto(maxR, p.K, p.L, e.balls, e.wsums, e.getWalker, e.putWalker) {
		sumsK = p.K
	}
	return sumsK
}

// ball reads |N_r(v)| off the engine's ball matrix, for r in 1..maxR.
func (e *Extractor) ball(v, r int) int { return int(e.balls[v*e.ballW+r-1]) }

// ballRow is node v's row of the ball matrix.
func (e *Extractor) ballRow(v int32) []int32 {
	i := int(v) * e.ballW
	return e.balls[i : i+e.ballW]
}

// indexField computes the L-centrality and index of every node (Defs. 3-4)
// into the provided per-node slices. c_L(v) is the average K-hop size over
// N_L(v) plus v itself: e.wsums holds the K-hop sizes summed over N_L(v)
// and |N_L(v)| comes off the ball matrix, so each value is one integer sum
// and count before a single float64 division. Including v makes c_L well
// defined for isolated nodes and only shifts all values consistently, so
// local-maximum comparisons are unaffected. When stale — the ball sizing
// pushed no sums, or a guard moved K off the column it pushed — e.wsums
// does not weigh khop yet and a weighted sweep refills it first.
func (e *Extractor) indexField(p Params, khop []int, stale bool, cent, index []float64) {
	if stale {
		e.g.BallWeightedSumsInto(graph.KernelBatched, p.L, khop, e.wsums, e.getWalker, e.putWalker)
	}
	wsums := e.wsums
	for v := range khop {
		cent[v], index[v] = indexOf(khop[v], wsums[v], e.ball(v, p.L))
	}
}

// indexOf applies Defs. 3-4 to one node's integer tallies: its K-hop size,
// the K-hop sizes summed over N_L (excluding the node itself) and |N_L|. It
// returns the L-centrality and the index. The incremental update patches
// the tallies and calls this too, which keeps its values bit-identical to
// a full run's.
func indexOf(khop, wsum, ballL int) (cent, index float64) {
	cent = float64(khop+wsum) / float64(1+ballL)
	return cent, (float64(khop) + cent) / 2
}

// minSites is the site population below which the min-site guard shrinks
// the radii and re-elects.
func minSites(n int) int { return max(4, n/512) }

// electSites applies Def. 5 to every node and lists the elected sites.
// The nodes run in degree-weighted chunks (walk cost grows with degree).
func (e *Extractor) electSites(index []float64, scope int) []int32 {
	e.bools = grow(e.bools, e.g.N())
	isSite := e.bools
	dead := e.g.DeadMask()
	graph.ParallelNodes(e.g, e.getWalker, e.putWalker, func(w *graph.Walker, v int) {
		isSite[v] = isLocalMax(w, int32(v), index, scope, dead)
	})
	return sitesOf(isSite)
}

// isLocalMax is Def. 5's test: v identifies itself as a critical skeleton
// node when its index is maximal within its scope-hop neighborhood, ties
// broken by node ID so exactly one node of an index plateau elects. The
// flood stops as soon as a dominating neighbor disproves maximality.
// Tombstoned nodes (dead[v]) are isolated, which would make them trivially
// maximal; they never elect.
func isLocalMax(w *graph.Walker, v int32, index []float64, scope int, dead []bool) bool {
	if dead != nil && dead[v] {
		return false
	}
	maximal := true
	w.WalkUntil(int(v), scope, func(u, _ int32) bool {
		if index[u] > index[v] || (index[u] == index[v] && u < v) {
			maximal = false
			return false
		}
		return true
	})
	return maximal
}

// sitesOf lists the flagged nodes in ascending ID order.
func sitesOf(isSite []bool) []int32 {
	count := 0
	for _, s := range isSite {
		if s {
			count++
		}
	}
	sites := make([]int32, 0, count)
	for v, s := range isSite {
		if s {
			sites = append(sites, int32(v))
		}
	}
	return sites
}

// saturationRadii counts the whole ball matrix into the engine's
// saturation counts and resolves the effective K and scope from them.
func (e *Extractor) saturationRadii(p Params) (kEff, scopeEff int) {
	e.satK = grow(e.satK, p.K+1)
	e.satS = grow(e.satS, p.Scope()+1)
	clear(e.satK)
	clear(e.satS)
	n := e.g.N()
	e.countSaturation(p, nil, +1)
	return radiusFromCounts(e.satK, p.K, n), radiusFromCounts(e.satS, p.Scope(), n)
}

// countSaturation adds sign times the listed nodes' ball rows (every row
// when nodes is nil) to the saturation counts: satK[r] (satS[r]) counts the
// rows whose radius-r ball stays at or under the K (scope) saturation
// limit, for r from 2 to K (scope). Identify counts the whole matrix; an
// incremental update takes its patched rows out (-1) before patching them
// and puts them back (+1) after, so the counts always describe the current
// matrix.
func (e *Extractor) countSaturation(p Params, nodes []int32, sign int) {
	n := e.g.N()
	limK := kSaturationFraction * float64(n)
	limS := scopeSaturationFraction * float64(n)
	satK, satS := e.satK[:p.K+1], e.satS[:p.Scope()+1]
	count := len(nodes)
	if nodes == nil {
		count = n
	}
	for i := 0; i < count; i++ {
		v := int32(i)
		if nodes != nil {
			v = nodes[i]
		}
		row := e.ballRow(v)
		for r := 2; r < len(satK); r++ {
			if float64(row[r-1]) <= limK {
				satK[r] += sign
			}
		}
		for r := 2; r < len(satS); r++ {
			if float64(row[r-1]) <= limS {
				satS[r] += sign
			}
		}
	}
}

// radiusFromCounts is the saturation guard: the largest radius r <= want
// at which a strict majority of the n balls stays under the limit (the
// median ball is under it exactly when n/2+1 balls are), else 1.
func radiusFromCounts(cnt []int, want, n int) int {
	need := n/2 + 1
	for r := want; r > 1; r-- {
		if cnt[r] >= need {
			return r
		}
	}
	return 1
}
