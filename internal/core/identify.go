package core

import (
	"sort"

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

// visitLogMaxNodes bounds the networks whose ball-sizing MS-BFS passes also
// record a settle log for centrality replay. The log holds one (node, bits)
// event per settle within L hops — O(n*avgBall_L) words — which is a fine
// trade below this size and a memory hazard above it.
const visitLogMaxNodes = 1 << 17

// identify runs Phase 1 (Sec. III-A) through a throwaway engine; the staged
// pipeline calls the Extractor method below so the scratch pools persist.
func identify(g *graph.Graph, p Params) (khop []int, cent []float64, index []float64, sites []int32, kEff, scopeEff int) {
	return NewExtractor(g).identify(p, nil)
}

// identify runs Phase 1 (Sec. III-A): every node computes its K-hop
// neighborhood size, its L-centrality and its index; nodes whose index is
// locally maximal within the scope radius become critical skeleton nodes.
// st, when non-nil, accumulates the phase's work counters.
//
// This is the centralized analogue of the two rounds of controlled
// flooding; package protocol implements the same computation as true node
// programs and the two are cross-checked in tests.
func (e *Extractor) identify(p Params, st *Stats) (khop []int, cent []float64, index []float64, sites []int32, kEff, scopeEff int) {
	g := e.g
	n := g.N()
	// The centrality pass reads |N_L| off the ball matrix instead of
	// counting during a walk, so the matrix must reach L as well.
	maxR := max(p.K, p.Scope(), p.L)
	balls := e.ballSizes(maxR, p.L)

	var medianK int
	kEff, medianK = effectiveRadius(balls, p.K, kSaturationFraction, &e.ints)
	scopeEff, _ = effectiveRadius(balls, p.Scope(), scopeSaturationFraction, &e.ints)
	if st != nil {
		st.BFSSweeps += n
		st.MedianKHopBall = medianK
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
		khop[v] = balls[v][kEff-1]
	}

	// When hop balls outgrow the field's structural features (very dense or
	// heavy-tailed radio graphs), the index becomes a near-global gradient
	// with a single maximum. Shrink the scope, then K, until a minimal site
	// population elects; elections are cheap compared to the ball sweeps.
	minSites := 4
	if m := n / 512; m > minSites {
		minSites = m
	}
	cent = make([]float64, n)
	index = make([]float64, n)
	round := 0
	for {
		replayed := e.indexField(p, khop, cent, index)
		sites = e.electSites(index, scopeEff)
		round++
		e.event("election", obs.Int("round", round), obs.Int("sites", len(sites)),
			obs.Int("k", kEff), obs.Int("scope", scopeEff))
		if st != nil {
			st.ElectionRounds++
			if replayed {
				// The centrality tallies were replayed from the ball-sizing
				// visit log; only the election swept the graph.
				st.BFSSweeps += n
			} else {
				st.BFSSweeps += 2 * n
			}
		}
		if len(sites) >= minSites {
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
				khop[v] = balls[v][kEff-1]
			}
		default:
			return khop, cent, index, sites, kEff, scopeEff
		}
	}
	return khop, cent, index, sites, kEff, scopeEff
}

// ballSizes returns the cumulative ball-size matrix sizes[v][r-1] over the
// engine's pooled buffers; the rows stay valid until the next Extract or
// Bind call. On networks of bounded size the same MS-BFS passes also record
// the settle log that lets indexField replay the centrality tallies without
// a second sweep.
func (e *Extractor) ballSizes(maxR, logRadius int) [][]int {
	n := e.g.N()
	e.ballsFlat = growInts(e.ballsFlat, n*maxR)
	if cap(e.balls) < n {
		e.balls = make([][]int, n)
	}
	e.balls = e.balls[:n]
	for v := 0; v < n; v++ {
		e.balls[v] = e.ballsFlat[v*maxR : (v+1)*maxR : (v+1)*maxR]
	}
	if n <= visitLogMaxNodes {
		e.g.BallSizesIntoKernelLogged(graph.KernelBatched, maxR, logRadius, e.balls, &e.visitLog, e.getWalker, e.putWalker)
	} else {
		e.visitLog.Invalidate()
		e.g.BallSizesInto(maxR, e.balls, e.getWalker, e.putWalker)
	}
	return e.balls
}

// indexField computes the L-centrality and index of every node (Defs. 3-4)
// into the provided per-node slices. c_L(v) is the average K-hop size over
// N_L(v) plus v itself: the weighted tallies ride the same MS-BFS passes as
// ball sizing and |N_L(v)| comes off the ball matrix, so each value is one
// integer sum and count before a single float64 division. Including v makes
// c_L well defined for isolated nodes and only shifts all values
// consistently, so local-maximum comparisons are unaffected. It reports
// whether the tallies were replayed from the ball-sizing visit log instead
// of a fresh graph sweep (the settle events are weight-independent, so the
// replay stays valid as the election loop reweights khop across rounds).
func (e *Extractor) indexField(p Params, khop []int, cent, index []float64) bool {
	n := e.g.N()
	e.wsums = growInts(e.wsums, n)
	wsums := e.wsums
	replayed := e.visitLog.Recorded() && e.visitLog.Radius() == p.L
	if replayed {
		e.visitLog.WeightedSumsInto(e.g, khop, wsums)
	} else {
		e.g.BallWeightedSumsInto(graph.KernelBatched, p.L, khop, wsums, e.getWalker, e.putWalker)
	}
	for v := 0; v < n; v++ {
		cent[v] = float64(khop[v]+wsums[v]) / float64(1+e.balls[v][p.L-1])
		index[v] = (float64(khop[v]) + cent[v]) / 2
	}
	return replayed
}

// electSites applies Def. 5: a node whose index is maximal within its
// scope-hop neighborhood (ties broken by node ID so exactly one node of an
// index plateau elects) identifies itself as a critical skeleton node. The
// flood stops as soon as a dominating neighbor disproves maximality.
func (e *Extractor) electSites(index []float64, scope int) []int32 {
	n := e.g.N()
	e.bools = growBools(e.bools, n)
	isSite := e.bools
	// Tombstoned nodes are isolated, which would make them trivially
	// maximal; they must never elect.
	dead := e.g.DeadMask()
	graph.ParallelNodes(e.g, e.getWalker, e.putWalker, func(w *graph.Walker, v int) {
		if dead != nil && dead[v] {
			isSite[v] = false
			return
		}
		maximal := true
		w.WalkUntil(v, scope, func(u, _ int32) bool {
			if index[u] > index[v] || (index[u] == index[v] && u < int32(v)) {
				maximal = false
				return false
			}
			return true
		})
		isSite[v] = maximal
	})
	count := 0
	for v := 0; v < n; v++ {
		if isSite[v] {
			count++
		}
	}
	sites := make([]int32, 0, count)
	for v := 0; v < n; v++ {
		if isSite[v] {
			sites = append(sites, int32(v))
		}
	}
	return sites
}

// effectiveRadius returns the largest radius r <= want whose median ball
// size stays below fraction*n (and at least 1), plus that radius' median
// ball size. Each candidate radius is tested by counting how many balls
// stay under the limit — sorted[n/2] <= limit exactly when at least n/2+1
// values do — so nothing is sorted inside the per-radius loop; one sort of
// the reusable scratch slice yields the returned median.
func effectiveRadius(balls [][]int, want int, fraction float64, scratch *[]int) (radius, median int) {
	n := len(balls)
	if n == 0 {
		return 1, 0
	}
	limit := fraction * float64(n)
	need := n/2 + 1
	radius = 1
	for r := want; r > 1; r-- {
		count := 0
		for v := range balls {
			if float64(balls[v][r-1]) <= limit {
				count++
			}
		}
		if count >= need {
			radius = r
			break
		}
	}
	sizes := growInts(*scratch, n)
	*scratch = sizes
	for v := range balls {
		sizes[v] = balls[v][radius-1]
	}
	sort.Ints(sizes)
	return radius, sizes[n/2]
}
