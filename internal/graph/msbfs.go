// Multi-source breadth-first search with bit-parallel frontiers, after
// Then et al., "The More the Merrier: Efficient Multi-Source Graph
// Traversal" (VLDB 2015). The all-sources truncated flooding that opens the
// paper's pipeline (|N_k(v)| for every node, Sec. III-A) runs one BFS per
// node; MS-BFS advances up to 64 sources together, one bit per source, so a
// node shared by many balls is expanded once per level per batch instead of
// once per source, and the whole sweep runs over the CSR arrays.
//
// Per-source results are exact — the bitmasks keep every source's
// visited set separate — so outputs are bit-identical to the walker path
// regardless of batch boundaries or worker count.
//
// The same passes also yield the centrality sums of Def. 3 (see sumPush).
package graph

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Kernel names a truncated-BFS implementation for the explicit-kernel entry
// points (BallSizesIntoKernel, BallSizesIntoKernelLogged,
// BallWeightedSumsInto). Production floods run batched; the walker stays as
// the per-source oracle the equivalence tests and benchmarks compare
// against.
type Kernel uint8

const (
	// KernelWalker runs one truncated BFS per source over pooled walker
	// scratch.
	KernelWalker Kernel = iota
	// KernelBatched runs the bit-parallel MS-BFS kernel.
	KernelBatched
)

// msbfsBatch is the number of sources one kernel pass advances together:
// one bit of a machine word per source.
const msbfsBatch = 64

// msbfsScratch holds one worker's MS-BFS state: one word of source bits per
// node for the visited set and for the next frontier, plus the frontier as
// a node list with its bits alongside (fbits[j] belongs to cur[j]), the
// next level's node list and a touched list for O(visited) reset. Only the
// two bit words are n-sized; the lists grow with the flooded region.
type msbfsScratch struct {
	seen    []uint64
	next    []uint64
	cur     []int32
	fbits   []uint64
	nxt     []int32
	touched []int32
	srcs    []int32 // batch source buffer for range drivers
	tally   []int32 // per-source, per-level settle counts for ball drivers
}

func newMSBFSScratch(n int) *msbfsScratch {
	return &msbfsScratch{
		seen: make([]uint64, n),
		next: make([]uint64, n),
		srcs: make([]int32, 0, msbfsBatch),
	}
}

// seed opens a batch: source i carries bit i in seen and in the frontier.
// Sources are listed once in touched (first occurrence order) and once in
// the frontier, where a repeated source ORs its bit into the existing
// entry. seen must be all-zero on entry.
func (s *msbfsScratch) seed(sources []int32) {
	cur, fbits, touched := s.cur[:0], s.fbits[:0], s.touched[:0]
	for i, src := range sources {
		bit := uint64(1) << uint(i)
		if s.seen[src] == 0 {
			touched = append(touched, src)
			cur = append(cur, src)
			fbits = append(fbits, bit)
		} else {
			fbits[slices.Index(cur, src)] |= bit
		}
		s.seen[src] |= bit
	}
	s.cur, s.fbits, s.touched = cur, fbits, touched
}

// finish re-zeroes seen over the touched nodes (unless the caller already
// did) and parks the grown lists for the next batch.
func (s *msbfsScratch) finish(cur, nxt, touched []int32, fbits []uint64, clearSeen bool) {
	if clearSeen {
		for _, v := range touched {
			s.seen[v] = 0
		}
	}
	s.cur, s.nxt, s.touched, s.fbits = cur[:0], nxt[:0], touched[:0], fbits[:0]
}

// sumPush asks a pass to push a weight from every source to the nodes
// within radius hops of it. Once a batch has settled radius hops, seen[x]
// holds the batch sources within radius hops of x, so each touched x
// receives into out[x] the weight of every such source other than x
// itself. Hop distance is symmetric, so over all batches
// out[x] += Σ_{s≠x, d(s,x)≤radius} weight(s): with ball sizes as weights
// these are the centrality sums of Def. 3. weight, when set, gives each
// batch source's weight explicitly; otherwise a source weighs its
// width-hop ball size, its level tallies summed through width (final once
// width <= radius); with rep set, weight − rep.Old[s] (see SumRepair).
// Batches on different workers reach the same node only near chunk seams;
// their integer adds commute, so the sums do not depend on the schedule.
// out == nil pushes nothing. pull asks for the transpose too: source i
// sums pull[v] within radius hops into pulled[i].
type sumPush struct {
	width, radius int
	weight        []int
	out           []int
	rep           *SumRepair
	pull, pulled  []int
}

// run floods up to 64 sources simultaneously, truncated at k hops, over the
// CSR arrays. When tally is non-nil (len(sources)*k entries) it sets
// tally[i*k+d-1] to the number of nodes source i first reaches at hop d.
// Settle events within logRadius hops are appended to log as
// (node, source-bits) pairs — a replayable record of which sources reached
// which nodes — and the grown log is returned alongside the total number
// of (source, node) visits, the same tally the walker's visited counter
// produces. Pass logRadius 0 to disable logging. A push with out set
// (radius <= k, distinct sources, a tally when push.weight is nil) pushes
// the batch's weights to the nodes it reached, and one with pull set
// tallies the pulled sums; see sumPush.
//
// The scratch words must be all-zero on entry; run re-zeroes everything it
// touched before returning, so the cost of repeated runs is proportional to
// the flooded region only.
func (s *msbfsScratch) run(g *Graph, k int, sources []int32, tally []int32, log []VisitEvent, logRadius int, push sumPush) ([]VisitEvent, int) {
	if k <= 0 || len(sources) == 0 {
		return log, 0
	}
	if len(sources) > msbfsBatch {
		panic("graph: msbfs kernel takes at most 64 sources")
	}
	s.seed(sources)
	// Locals pin the scratch slice headers so element stores inside the hot
	// loops cannot force header reloads.
	seen, next := s.seen, s.next
	cur, fbits, nxt, touched := s.cur, s.fbits, s.nxt, s.touched
	pull, pulled := push.pull, push.pulled
	visited := 0
	for d := 1; d <= k && len(cur) > 0; d++ {
		// Expand: OR every frontier word into the neighbors' next words.
		// Every edge stores, an interior one (every bit seen) included: a
		// no-op store is cheaper than a branch on whether the edge adds
		// bits, which mispredicts at every seam (see expandRow).
		nxt = expand(g, cur, fbits, seen, next, nxt, admission{})
		// Settle: every queued node carries first-time bits (the expand
		// mask guarantees it); tally them per source and make them the
		// next frontier, which is nxt itself with its bits alongside.
		var cnt [msbfsBatch]int32
		pulling := pull != nil && d <= push.radius
		fbits = fbits[:0]
		for _, v := range nxt {
			newBits := next[v]
			next[v] = 0
			if seen[v] == 0 {
				touched = append(touched, v)
			}
			seen[v] |= newBits
			fbits = append(fbits, newBits)
			visited += bits.OnesCount64(newBits)
			if d <= logRadius {
				log = append(log, VisitEvent{V: v, Bits: newBits})
			}
			if !pulling {
				for b := newBits; b != 0; b &= b - 1 {
					cnt[bits.TrailingZeros64(b)]++
				}
			} else {
				wv := pull[v]
				for b := newBits; b != 0; b &= b - 1 {
					i := bits.TrailingZeros64(b)
					cnt[i]++
					pulled[i] += wv
				}
			}
		}
		cur, nxt = nxt, cur
		if tally != nil {
			for i := range sources {
				tally[i*k+d-1] = cnt[i]
			}
		}
		if push.out != nil && d == push.radius && d < k {
			// Later levels still expand against seen, so push without
			// clearing it; the exit below only clears.
			pushSums(push, sources, k, tally, seen, touched, false)
			push.out = nil
		}
	}
	pushed := push.out != nil
	if pushed {
		// Radius reached at the last level, or the frontier died first:
		// seen is final either way, so push while clearing it.
		pushSums(push, sources, k, tally, seen, touched, true)
	}
	s.finish(cur, nxt, touched, fbits, !pushed)
	return log, visited
}

// admission narrows an expand to the nodes a kernel may enter at the
// current level. The zero value admits every node (run, BoundedReach).
// With bound set, v admits nothing unless bound[v] >= 0 and
// bound[v]+off >= 0, where off is the slack minus the level (PrunedBatch's
// prune); the test is a sign mask, not a branch.
type admission struct {
	bound []int32
	off   int32
}

// expand is the expand half of one MS-BFS level, shared by every kernel:
// it ORs each frontier word fbits[j] into the next words of cur[j]'s
// neighbors, masking off bits already seen and bits the admission rule
// refuses, and returns in nxt (reused) the nodes whose next word it turned
// non-zero, in first-reach order. seen is only updated in the settle half,
// so the mask is stable across the whole level. Before each frontier node
// nxt grows to hold all of its neighbors, which expandRow needs.
func expand(g *Graph, cur []int32, fbits, seen, next []uint64, nxt []int32, adm admission) []int32 {
	offsets, targets, ends := g.offsets, g.targets, g.ends
	nxt = nxt[:cap(nxt)]
	m := 0
	for j, u := range cur {
		adj := targets[offsets[u]:ends[u]]
		if m+len(adj) > len(nxt) {
			nxt = append(nxt[:m], make([]int32, len(adj))...)
			nxt = nxt[:cap(nxt)]
		}
		m = adm.expandRow(adj, fbits[j], seen, next, nxt, m)
	}
	return nxt[:m]
}

// expandRow expands one frontier node, with frontier word f and adjacency
// adj, into next, appending first reaches to nxt[:m] (which has room for
// all of adj) and returning the new length. It is branch-free per edge:
// whether an edge adds bits, and whether they are the target's first this
// level, depend on where the frontier meets the visited region, so
// branches on them mispredict at every seam. Instead every edge stores
// next[v] = old|add, a no-op when add is zero, and writes v into slot m,
// and m advances exactly when add != 0 and old == 0, read from the sign
// bits of add|-add and old|-old. The same nodes land in the same order as
// a branching loop would put them. It is kept out of expand's loop so the
// edge loop's values fit in registers.
func (a *admission) expandRow(adj []int32, f uint64, seen, next []uint64, nxt []int32, m int) int {
	for _, v := range adj {
		add := f &^ seen[v]
		if a.bound != nil {
			b := a.bound[v]
			add &^= uint64(int64((b | (b + a.off)) >> 31))
		}
		old := next[v]
		next[v] = old | add
		nxt[m] = v
		m += int(((add | -add) &^ (old | -old)) >> 63)
	}
	return m
}

// pushSums adds to push.out[x], for every touched x, the weights of the
// batch sources in seen[x] other than x itself, zeroing seen[x] as it goes
// when clear is set. With distinct sources, touched opens with the sources
// in batch order, so touched[j] for j < len(sources) carries self-bit j.
// A repair push (rep set) pushes each weight's change against rep.Old, and
// each fresh source adds its pulled sum to its own (see SumRepair).
func pushSums(push sumPush, sources []int32, k int, tally []int32, seen []uint64, touched []int32, clear bool) {
	var wt [msbfsBatch]int
	if push.weight != nil {
		copy(wt[:], push.weight)
	} else {
		for i := range sources {
			for _, c := range tally[i*k : i*k+push.width] {
				wt[i] += int(c)
			}
		}
	}
	out := push.out
	if rep := push.rep; rep != nil {
		for i, src := range sources {
			wt[i] -= rep.Old[src]
			if rep.fresh(src) {
				addInt(&out[src], push.pulled[i])
			}
		}
	}
	for j, x := range touched {
		b := seen[x]
		if j < len(sources) {
			b &^= 1 << uint(j)
		}
		if clear {
			seen[x] = 0
		}
		sum := 0
		for ; b != 0; b &= b - 1 {
			sum += wt[bits.TrailingZeros64(b)]
		}
		if sum != 0 {
			addInt(&out[x], sum)
		}
	}
}

// addInt adds d to *p atomically. int is as wide as a pointer, so the
// 64-bit atomics apply on 64-bit platforms, where sums of ball sizes can
// pass 2^31 on saturated graphs, and the 32-bit ones elsewhere.
func addInt(p *int, d int) {
	if unsafe.Sizeof(d) == 8 {
		atomic.AddInt64((*int64)(unsafe.Pointer(p)), int64(d))
	} else {
		atomic.AddInt32((*int32)(unsafe.Pointer(p)), int32(d))
	}
}

// runKernel floods one batch through the walker's MS-BFS scratch (see
// run), crediting the work to the walker's counters so pooled-engine
// observability sees the batched kernel exactly like walker sweeps; the
// grown log slice is returned so per-batch log buffers can live outside the
// walker.
func (w *Walker) runKernel(k int, sources []int32, tally []int32, log []VisitEvent, logRadius int, push sumPush) []VisitEvent {
	if w.ms == nil {
		w.ms = newMSBFSScratch(w.g.N())
	}
	log, visited := w.ms.run(w.g, k, sources, tally, log, logRadius, push)
	w.s.sweeps += len(sources)
	w.s.visited += visited
	return log
}

// batchSource maps a batch slot to its source node: the i-th node of the
// spatial Z-curve ordering when Build derived one, the i-th node ID
// otherwise.
func (g *Graph) batchSource(i int) int32 {
	if len(g.batchOrder) == g.N() {
		return g.batchOrder[i]
	}
	return int32(i)
}

// forBatches splits the index space 0..count-1 into 64-wide batches and
// runs fn(w, lo, hi) on each under ParallelRange, in uniform chunks of
// batches, with the walker's MS-BFS scratch allocated. Chunks are not
// weighted by the sources' degrees: degree says little about a batch's
// flood work where long links exist, and such weights measured slower on a
// log-normal field (EXPERIMENTS.md, "Branch-free frontier expansion").
func (g *Graph) forBatches(count int, acquire func() *Walker, release func(*Walker), fn func(w *Walker, lo, hi int)) {
	batches := (count + msbfsBatch - 1) / msbfsBatch
	ParallelRange(g, batches, acquire, release, func(w *Walker, b int) {
		if w.ms == nil {
			w.ms = newMSBFSScratch(g.N())
		}
		lo := b * msbfsBatch
		fn(w, lo, min(lo+msbfsBatch, count))
	})
}

// nodeBatch gathers batch slots lo..hi-1 as sources, in batchSource order,
// into the walker's batch buffer.
func (w *Walker) nodeBatch(lo, hi int) []int32 {
	srcs := w.ms.srcs[:0]
	for i := lo; i < hi; i++ {
		srcs = append(srcs, w.g.batchSource(i))
	}
	w.ms.srcs = srcs
	return srcs
}

// ballTally floods one batch truncated at k hops and returns the walker's
// tally of it: tally[i*k+d-1] nodes are first reached from sources[i] at
// hop d. The log and push thread through to the kernel; the grown log is
// returned.
func (w *Walker) ballTally(k int, sources []int32, log []VisitEvent, logRadius int, push sumPush) ([]int32, []VisitEvent) {
	t := w.ms.tally
	if cap(t) < len(sources)*k {
		t = make([]int32, msbfsBatch*k)
	}
	t = t[:len(sources)*k]
	clear(t)
	w.ms.tally = t
	log = w.runKernel(k, sources, t, log, logRadius, push)
	return t, log
}

// ballBatches floods every node truncated at k hops, 64 spatially grouped
// sources per kernel pass, and hands each node's level tallies (levels[d-1]
// nodes first reached at hop d) to emit. emit runs concurrently across
// batches and must write only state owned by v. A non-zero push
// accumulates the centrality sums into push.out, which the caller zeroes;
// a non-nil lg, already Reset, records each batch's settle events within
// logRadius hops.
func (g *Graph) ballBatches(k int, push sumPush, lg *VisitLog, logRadius int, acquire func() *Walker, release func(*Walker), emit func(v int32, levels []int32)) {
	g.forBatches(g.N(), acquire, release, func(w *Walker, lo, hi int) {
		srcs := w.nodeBatch(lo, hi)
		var log []VisitEvent
		if lg != nil {
			log = lg.batches[lo/msbfsBatch]
		}
		tally, log := w.ballTally(k, srcs, log, logRadius, push)
		if lg != nil {
			lg.batches[lo/msbfsBatch] = log
		}
		for i, v := range srcs {
			emit(v, tally[i*k:(i+1)*k])
		}
	})
}

// cumulate writes the running totals of one source's level tallies into a
// ball row: row[r] = |N_{r+1}|.
func cumulate[T int | int32](row []T, levels []int32) {
	var c T
	for r, x := range levels {
		c += T(x)
		row[r] = c
	}
}

// SumRepair asks BatchBallSizesInto to patch the centrality sums of
// Def. 3 (Sums[x]: K-ball sizes over N_L(x), x excluded) from the floods
// that rewrite the listed rows. Each listed s pushes its change
// |N_K(s)| − Old[s] to the nodes within L of it. x is fresh when
// 0 <= Dist[x] <= L, and must then be listed: its sum is zeroed first and
// pulls Σ_{u∈N_L(x)} Old[u] besides the pushes. With Old the previous
// sizes and every changed K-ball listed, a fresh sum is its new value and
// any other moves by its changes, which is exact when only fresh nodes can
// have a new L-ball. 1 <= K <= the flood radius.
type SumRepair struct {
	K, L      int
	Sums, Old []int
	Dist      []int32
}

// fresh reports whether x's sum is rebuilt rather than patched.
func (r *SumRepair) fresh(x int32) bool { return uint32(r.Dist[x]) <= uint32(r.L) }

// BatchBallSizesInto recomputes the ball rows of an arbitrary set of
// distinct sources in a flat node-indexed matrix of stride k: for each
// listed v, balls[v*k+r-1] receives |N_r(v)| for r in 1..k (excluding v);
// other rows are left alone. A non-nil rep patches its sums from the same
// floods: each batch pushes and pulls during its ball flood when
// K <= L <= k, else in a second flood to L once its K-balls are final.
// Sources run 64 per MS-BFS pass in the order given, so a list sorted
// along BatchOrder keeps each pass's balls overlapping. The incremental
// extractor patches its ball matrix and centrality sums with it.
func (g *Graph) BatchBallSizesInto(k int, sources []int32, balls []int32, rep *SumRepair, acquire func() *Walker, release func(*Walker)) {
	if len(sources) == 0 || k <= 0 {
		return
	}
	if rep != nil {
		for _, v := range sources {
			if rep.fresh(v) {
				rep.Sums[v] = 0
			}
		}
	}
	fused := rep != nil && rep.K <= rep.L && rep.L <= k
	g.forBatches(len(sources), acquire, release, func(w *Walker, lo, hi int) {
		srcs := sources[lo:hi]
		var push, during sumPush
		var pulled [msbfsBatch]int
		if rep != nil {
			push = sumPush{width: rep.K, radius: rep.L, out: rep.Sums, rep: rep, pull: rep.Old, pulled: pulled[:len(srcs)]}
		}
		if fused {
			during = push
		}
		tally, _ := w.ballTally(k, srcs, nil, 0, during)
		for i, v := range srcs {
			cumulate(balls[int(v)*k:(int(v)+1)*k], tally[i*k:(i+1)*k])
		}
		if rep != nil && !fused {
			var wt [msbfsBatch]int
			for i, v := range srcs {
				wt[i] = int(balls[int(v)*k+rep.K-1])
			}
			push.weight = wt[:len(srcs)]
			w.runKernel(rep.L, srcs, nil, nil, 0, push)
		}
	})
}

// BallWeightedSumsInto computes, for every node v, the sum of weight[u]
// over all u in N_k(v) (excluding v itself) into out[v] (overwritten; out
// must hold N entries). This is the bulk form of the centrality
// accumulation (Def. 3): one walker sweep per node, or — for the batched
// kernel — a per-level weighted tally over 64 sources per MS-BFS pass, in
// batch order. Results are identical across kernels.
func (g *Graph) BallWeightedSumsInto(kern Kernel, k int, weight []int, out []int, acquire func() *Walker, release func(*Walker)) {
	if kern == KernelWalker {
		ParallelNodes(g, acquire, release, func(w *Walker, v int) {
			sum := 0
			w.Walk(v, k, func(u, _ int32) { sum += weight[u] })
			out[v] = sum
		})
		return
	}
	g.forBatches(g.N(), acquire, release, func(w *Walker, lo, hi int) {
		srcs := w.nodeBatch(lo, hi)
		var wb [msbfsBatch]int
		w.runKernel(k, srcs, nil, nil, 0, sumPush{radius: k, pull: weight, pulled: wb[:len(srcs)]})
		for i, v := range srcs {
			out[v] = wb[i]
		}
	})
}

// ballSizesWalker fills one node's cumulative ball-size row with a walker
// sweep; the walker path of BallSizesIntoKernel and BallSizesIntoKernelLogged.
func ballSizesWalker(w *Walker, v int, counts []int) {
	for r := range counts {
		counts[r] = 0
	}
	w.Walk(v, len(counts), func(_, d int32) { counts[d-1]++ })
	for r := 1; r < len(counts); r++ {
		counts[r] += counts[r-1]
	}
}
