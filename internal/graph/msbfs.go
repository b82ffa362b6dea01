// Multi-source breadth-first search with bit-parallel frontiers, after
// Then et al., "The More the Merrier: Efficient Multi-Source Graph
// Traversal" (VLDB 2015). The all-sources truncated flooding that opens the
// paper's pipeline (|N_k(v)| for every node, Sec. III-A) runs one BFS per
// node; MS-BFS advances up to 64 sources together, one bit per source, so a
// node shared by many balls is expanded once per level per batch instead of
// once per source, and the whole sweep runs over the frozen CSR arrays.
//
// Per-source results are exact — the bitmasks keep every source's
// visited set separate — so outputs are bit-identical to the walker path
// regardless of batch boundaries or worker count.
//
// The same passes also yield the centrality sums of Def. 3 (see sumPush).
package graph

import (
	"math/bits"
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
	// KernelBatched runs the bit-parallel MS-BFS kernel; it freezes the
	// graph if needed.
	KernelBatched
)

// msbfsBatch is the number of sources one kernel pass advances together:
// one bit of a machine word per source.
const msbfsBatch = 64

// smallSourceFactor gates the arbitrary-source BatchBallSizesInto: below
// N/smallSourceFactor sources, per-source walker sweeps beat the MS-BFS
// batches even on frozen graphs (both paths produce identical values).
const smallSourceFactor = 16

// msbfsScratch holds one worker's MS-BFS state: one word of source bits per
// node for the visited set, the current frontier and the next frontier, plus
// the frontier node lists and a touched list for O(visited) reset.
type msbfsScratch struct {
	seen     []uint64
	frontier []uint64
	next     []uint64
	cur      []int32
	nxt      []int32
	touched  []int32
	srcs     []int32 // batch source buffer for range drivers
	rows     [][]int // batch row views for range drivers
}

func newMSBFSScratch(n int) *msbfsScratch {
	return &msbfsScratch{
		seen:     make([]uint64, n),
		frontier: make([]uint64, n),
		next:     make([]uint64, n),
		srcs:     make([]int32, 0, msbfsBatch),
		rows:     make([][]int, 0, msbfsBatch),
	}
}

// sumPush asks an all-sources ball-sizing pass for the centrality sums as
// well. Once a batch has settled radius hops, seen[x] holds the batch
// sources within radius hops of x, so each touched x receives into out[x]
// the width-hop ball size of every such source other than x itself. Hop
// distance is symmetric, so over all batches
// out[x] = Σ_{s≠x, d(s,x)≤radius} |N_width(s)|. The rows hold per-level
// tallies while a batch runs, so a source's weight is its row summed
// through width-1, final once width <= radius. Batches on different
// workers reach the same node only near chunk seams; their integer adds
// commute, so the sums do not depend on the schedule. The zero value pushes
// nothing.
type sumPush struct {
	width, radius int
	out           []int
}

// run floods up to 64 sources simultaneously, truncated at k hops, over the
// frozen CSR arrays. For source i it adds the number of nodes first reached
// at hop d to rows[i][min(d-1, len(rows[i])-1)] — per-radius tallies for
// k-wide rows, a running total for width-1 rows — and, when weight is
// non-nil, adds weight[v] for every reached v to wsums[i]. Either rows or
// wsums may be nil. Settle events within logRadius hops are appended to log
// as (node, source-bits) pairs — a replayable record of which sources
// reached which nodes — and the grown log is returned alongside the total
// number of (source, node) visits, the same tally the walker's visited
// counter produces. Pass logRadius 0 to disable logging. A non-zero push
// (radius <= k, distinct sources, rows at least push.width wide) pushes the
// batch's ball sizes to the nodes it reached; see sumPush.
//
// The scratch arrays must be all-zero on entry; run re-zeroes everything it
// touched before returning, so the cost of repeated runs is proportional to
// the flooded region only.
func (s *msbfsScratch) run(g *Graph, k int, sources []int32, rows [][]int, weight []int, wsums []int, log []VisitEvent, logRadius int, push sumPush) ([]VisitEvent, int) {
	if k <= 0 || len(sources) == 0 {
		return log, 0
	}
	offsets, targets, ends, ok := g.csrEff()
	if !ok || len(sources) > msbfsBatch {
		panic("graph: msbfs kernel needs a frozen graph and at most 64 sources")
	}
	// Locals pin the scratch slice headers so element stores inside the hot
	// loops cannot force header reloads.
	seen, frontier, next := s.seen, s.frontier, s.next
	cur := s.cur[:0]
	touched := s.touched[:0]
	for i, src := range sources {
		bit := uint64(1) << uint(i)
		if seen[src] == 0 {
			touched = append(touched, src)
		}
		if frontier[src] == 0 {
			cur = append(cur, src)
		}
		seen[src] |= bit
		frontier[src] |= bit
	}
	visited := 0
	for d := 1; d <= k && len(cur) > 0; d++ {
		// Expand: OR every frontier word into the neighbors' next words,
		// masking off bits already seen. seen[] is only updated in the
		// settle half, so the mask is stable across the whole level; the
		// filter keeps interior nodes (every bit seen) out of next/nxt
		// entirely, so the common already-visited edge costs one load and
		// no store.
		nxt := s.nxt[:0]
		for _, u := range cur {
			f := frontier[u]
			for _, v := range targets[offsets[u]:ends[u]] {
				add := f &^ seen[v]
				if add == 0 {
					continue
				}
				old := next[v]
				if nv := old | add; nv != old {
					if old == 0 {
						nxt = append(nxt, v)
					}
					next[v] = nv
				}
			}
		}
		s.nxt = nxt
		for _, u := range cur {
			frontier[u] = 0
		}
		cur = cur[:0]
		// Settle: every queued node carries first-time bits (the expand
		// mask guarantees it); tally them per source and promote them to
		// the next frontier.
		var cnt [msbfsBatch]int
		for _, v := range nxt {
			newBits := next[v]
			next[v] = 0
			if seen[v] == 0 {
				touched = append(touched, v)
			}
			seen[v] |= newBits
			frontier[v] = newBits
			cur = append(cur, v)
			visited += bits.OnesCount64(newBits)
			if d <= logRadius {
				log = append(log, VisitEvent{V: v, Bits: newBits})
			}
			if weight == nil {
				for b := newBits; b != 0; b &= b - 1 {
					cnt[bits.TrailingZeros64(b)]++
				}
			} else {
				wv := weight[v]
				for b := newBits; b != 0; b &= b - 1 {
					i := bits.TrailingZeros64(b)
					cnt[i]++
					wsums[i] += wv
				}
			}
		}
		if rows != nil {
			for i := range sources {
				if cnt[i] != 0 {
					row := rows[i]
					r := d - 1
					if r >= len(row) {
						r = len(row) - 1
					}
					row[r] += cnt[i]
				}
			}
		}
		if d == push.radius && d < k {
			// Later levels still expand against seen, so push without
			// clearing it; the exit below only clears.
			pushSums(push, sources, rows, seen, touched, false)
			push.out = nil
		}
	}
	for _, u := range cur {
		frontier[u] = 0
	}
	if push.out != nil {
		// Radius reached at the last level, or the frontier died first:
		// seen is final either way, so push while clearing it.
		pushSums(push, sources, rows, seen, touched, true)
	} else {
		for _, v := range touched {
			seen[v] = 0
		}
	}
	s.cur = cur[:0]
	s.touched = touched[:0]
	return log, visited
}

// pushSums adds to push.out[x], for every touched x, the ball sizes of the
// batch sources in seen[x] other than x itself, zeroing seen[x] as it goes
// when clear is set. With distinct sources, touched opens with the sources
// in batch order, so touched[j] for j < len(sources) carries self-bit j.
func pushSums(push sumPush, sources []int32, rows [][]int, seen []uint64, touched []int32, clear bool) {
	var wt [msbfsBatch]int
	for i := range sources {
		for _, c := range rows[i][:push.width] {
			wt[i] += c
		}
	}
	out := push.out
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

// runBatch floods one batch through the walker's MS-BFS scratch, crediting
// the work to the walker's counters so pooled-engine observability sees the
// batched kernel exactly like walker sweeps.
func (w *Walker) runBatch(k int, sources []int32, rows [][]int, weight []int, wsums []int) {
	w.runKernel(k, sources, rows, weight, wsums, nil, 0, sumPush{})
}

// runKernel is runBatch with the settle log and the sum push threaded
// through; the grown log slice is returned so per-batch log buffers can
// live outside the walker.
func (w *Walker) runKernel(k int, sources []int32, rows [][]int, weight []int, wsums []int, log []VisitEvent, logRadius int, push sumPush) []VisitEvent {
	if w.ms == nil {
		w.ms = newMSBFSScratch(w.g.N())
	}
	log, visited := w.ms.run(w.g, k, sources, rows, weight, wsums, log, logRadius, push)
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

// ballSizesBatched fills out[v] (len k each, overwritten) with cumulative
// ball sizes for every node, batching 64 spatially grouped sources per
// kernel pass. Rows of width 1 degenerate to plain |N_k| counts. A non-zero
// push accumulates the centrality sums into push.out, which the caller
// zeroes.
func (g *Graph) ballSizesBatched(k int, out [][]int, push sumPush, acquire func() *Walker, release func(*Walker)) {
	n := g.N()
	batches := (n + msbfsBatch - 1) / msbfsBatch
	ParallelRange(g, batches, acquire, release, func(w *Walker, b int) {
		lo := b * msbfsBatch
		hi := lo + msbfsBatch
		if hi > n {
			hi = n
		}
		if w.ms == nil {
			w.ms = newMSBFSScratch(n)
		}
		srcs := w.ms.srcs[:0]
		rows := w.ms.rows[:0]
		for i := lo; i < hi; i++ {
			v := g.batchSource(i)
			srcs = append(srcs, v)
			row := out[v]
			for r := range row {
				row[r] = 0
			}
			rows = append(rows, row)
		}
		w.ms.srcs, w.ms.rows = srcs, rows
		w.runKernel(k, srcs, rows, nil, nil, nil, 0, push)
		for _, row := range rows {
			for r := 1; r < len(row); r++ {
				row[r] += row[r-1]
			}
		}
	})
}

// BatchBallSizes computes, for each source, the cumulative ball sizes
// |N_r(source)| for r in 1..k (excluding the source), indexed out[i][r-1].
// It is AllBallSizes over an arbitrary source set: sources are advanced 64
// at a time by the MS-BFS kernel when the graph is frozen, per-source walker
// sweeps otherwise. Duplicate sources are allowed and computed per entry.
func (g *Graph) BatchBallSizes(k int, sources []int32) [][]int {
	if k < 0 {
		k = 0
	}
	out := make([][]int, len(sources))
	flat := make([]int, len(sources)*k)
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	if len(sources) == 0 || k == 0 {
		return out
	}
	if !g.frozen {
		ParallelRange(g, len(sources), nil, nil, func(w *Walker, i int) {
			ballSizesWalker(w, int(sources[i]), out[i])
		})
		return out
	}
	batches := (len(sources) + msbfsBatch - 1) / msbfsBatch
	ParallelRange(g, batches, nil, nil, func(w *Walker, b int) {
		lo := b * msbfsBatch
		hi := lo + msbfsBatch
		if hi > len(sources) {
			hi = len(sources)
		}
		rows := out[lo:hi]
		w.runBatch(k, sources[lo:hi], rows, nil, nil)
		for _, row := range rows {
			for r := 1; r < len(row); r++ {
				row[r] += row[r-1]
			}
		}
	})
	return out
}

// BatchBallSizesInto recomputes the cumulative ball-size rows of an
// arbitrary source set in place: rows[i] (len k, overwritten) receives
// |N_r(sources[i])| for r in 1..k. This is BatchBallSizes writing into
// caller-owned rows — the incremental extractor patches exactly the dirty
// rows of its persistent ball matrix with it. Sources run 64 per MS-BFS
// pass on frozen graphs, per-source walker sweeps otherwise; the values are
// identical either way.
func (g *Graph) BatchBallSizesInto(k int, sources []int32, rows [][]int, acquire func() *Walker, release func(*Walker)) {
	if len(sources) == 0 || k <= 0 {
		return
	}
	if !g.frozen || len(sources)*smallSourceFactor < g.N() {
		// Small source sets: per-source sweeps cost the sum of the ball
		// volumes, which undercuts the per-batch frontier machinery of the
		// MS-BFS path long before the set grows to a graph-sized fraction.
		ParallelRange(g, len(sources), acquire, release, func(w *Walker, i int) {
			ballSizesWalker(w, int(sources[i]), rows[i][:k])
		})
		return
	}
	batches := (len(sources) + msbfsBatch - 1) / msbfsBatch
	ParallelRange(g, batches, acquire, release, func(w *Walker, b int) {
		lo := b * msbfsBatch
		hi := lo + msbfsBatch
		if hi > len(sources) {
			hi = len(sources)
		}
		if w.ms == nil {
			w.ms = newMSBFSScratch(g.N())
		}
		batchRows := w.ms.rows[:0]
		for i := lo; i < hi; i++ {
			row := rows[i][:k]
			for r := range row {
				row[r] = 0
			}
			batchRows = append(batchRows, row)
		}
		w.ms.rows = batchRows
		w.runBatch(k, sources[lo:hi], batchRows, nil, nil)
		for _, row := range batchRows {
			for r := 1; r < len(row); r++ {
				row[r] += row[r-1]
			}
		}
	})
}

// BallWeightedSumsInto computes, for every node v, the sum of weight[u] over
// all u in N_k(v) (excluding v itself) into out (len >= N, overwritten).
// This is the bulk form of the centrality accumulation (Def. 3): one walker
// sweep per node, or — for the batched kernel — a per-level weighted tally
// rolled into the same MS-BFS passes as the ball sizes. Results are
// identical across kernels.
func (g *Graph) BallWeightedSumsInto(kern Kernel, k int, weight []int, out []int, acquire func() *Walker, release func(*Walker)) {
	n := g.N()
	if kern == KernelWalker {
		ParallelNodes(g, acquire, release, func(w *Walker, v int) {
			sum := 0
			w.Walk(v, k, func(u, _ int32) { sum += weight[u] })
			out[v] = sum
		})
		return
	}
	g.Freeze()
	batches := (n + msbfsBatch - 1) / msbfsBatch
	ParallelRange(g, batches, acquire, release, func(w *Walker, b int) {
		lo := b * msbfsBatch
		hi := lo + msbfsBatch
		if hi > n {
			hi = n
		}
		if w.ms == nil {
			w.ms = newMSBFSScratch(n)
		}
		srcs := w.ms.srcs[:0]
		for i := lo; i < hi; i++ {
			srcs = append(srcs, g.batchSource(i))
		}
		w.ms.srcs = srcs
		var wbuf [msbfsBatch]int
		wb := wbuf[:len(srcs)]
		w.runBatch(k, srcs, nil, weight, wb)
		for i, v := range srcs {
			out[v] = wb[i]
		}
	})
}

// ballSizesWalker fills one node's cumulative ball-size row with a walker
// sweep; shared by the walker paths of BallSizesIntoKernel and BatchBallSizes.
func ballSizesWalker(w *Walker, v int, counts []int) {
	for r := range counts {
		counts[r] = 0
	}
	w.Walk(v, len(counts), func(_, d int32) { counts[d-1]++ })
	for r := 1; r < len(counts); r++ {
		counts[r] += counts[r-1]
	}
}
