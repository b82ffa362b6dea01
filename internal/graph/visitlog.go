// Visit-log recording for the batched MS-BFS kernel: the settle events
// (node, source-bits) of an all-sources flood, replayable as a linear scan
// that yields weighted sums without a second graph traversal. The log is
// weight-independent and integer sums commute, so replayed results are
// bit-identical to a fresh sweep. The pipeline no longer uses it — ball
// sizing pushes the centrality sums itself (sumPush in msbfs.go) — and it
// stays as the reference the benchmark's per-layer rows time and check
// against a fresh weighted sweep.
package graph

import (
	"math/bits"
	"runtime"
)

// VisitEvent records one batched-kernel settle: source i of the batch
// reached node V iff bit i of Bits is set.
type VisitEvent struct {
	V    int32
	Bits uint64
}

// VisitLog holds the settle events of one all-sources batched flood, one
// event list per 64-source batch (batch b covers batch slots b*64..). A log
// is only meaningful for the (graph, radius) it was recorded against;
// callers gate replays on Recorded and Radius.
type VisitLog struct {
	n       int
	radius  int
	batches [][]VisitEvent
	valid   bool
}

// Reset prepares the log to record an n-source flood truncated at radius
// hops, retaining the per-batch buffers from previous recordings.
func (lg *VisitLog) Reset(n, radius int) {
	lg.n, lg.radius, lg.valid = n, radius, true
	nb := (n + msbfsBatch - 1) / msbfsBatch
	if cap(lg.batches) < nb {
		lg.batches = append(lg.batches[:cap(lg.batches)], make([][]VisitEvent, nb-cap(lg.batches))...)
	}
	lg.batches = lg.batches[:nb]
	for b := range lg.batches {
		lg.batches[b] = lg.batches[b][:0]
	}
}

// Invalidate marks the log unusable (recorded against a walker path or a
// stale graph). Buffers are retained.
func (lg *VisitLog) Invalidate() { lg.valid = false }

// Recorded reports whether the log holds a complete batched recording.
func (lg *VisitLog) Recorded() bool { return lg != nil && lg.valid }

// Radius returns the truncation radius of the recording.
func (lg *VisitLog) Radius() int { return lg.radius }

// Events returns the total number of recorded settle events.
func (lg *VisitLog) Events() int {
	total := 0
	for _, b := range lg.batches {
		total += len(b)
	}
	return total
}

// BallSizesIntoKernelLogged is BallSizesIntoKernel recording the settle
// events of the first logRadius levels into lg. The walker kernel has
// nothing to record: lg is invalidated and the sweep runs as usual. The rows
// written to out are identical either way.
func (g *Graph) BallSizesIntoKernelLogged(kern Kernel, k, logRadius int, out [][]int, lg *VisitLog, acquire func() *Walker, release func(*Walker)) {
	if k <= 0 || g.N() == 0 {
		lg.Invalidate()
		return
	}
	if kern == KernelWalker {
		lg.Invalidate()
		ParallelNodes(g, acquire, release, func(w *Walker, v int) {
			ballSizesWalker(w, v, out[v])
		})
		return
	}
	g.Freeze()
	n := g.N()
	lg.Reset(n, logRadius)
	logs := lg.batches
	batches := len(logs)
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
		logs[b] = w.runKernel(k, srcs, rows, nil, nil, logs[b], logRadius, sumPush{})
		for _, row := range rows {
			for r := 1; r < len(row); r++ {
				row[r] += row[r-1]
			}
		}
	})
}

// WeightedSumsInto replays the recording: out[v] receives the sum of
// weight[u] over all u within Radius hops of v (excluding v), for every
// node — the same values BallWeightedSumsInto computes with a full kernel
// sweep, at the cost of one linear pass over the log. The caller must have
// checked Recorded and that Radius matches the wanted flooding radius.
func (lg *VisitLog) WeightedSumsInto(g *Graph, weight []int, out []int) {
	ParallelChunksWeighted(len(lg.batches), runtime.GOMAXPROCS(0), func(b int) int {
		return len(lg.batches[b]) + 1
	}, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			base := b * msbfsBatch
			cnt := lg.n - base
			if cnt > msbfsBatch {
				cnt = msbfsBatch
			}
			var sums [msbfsBatch]int
			for _, ev := range lg.batches[b] {
				wv := weight[ev.V]
				for bitsLeft := ev.Bits; bitsLeft != 0; bitsLeft &= bitsLeft - 1 {
					sums[bits.TrailingZeros64(bitsLeft)] += wv
				}
			}
			for i := 0; i < cnt; i++ {
				out[g.batchSource(base+i)] = sums[i]
			}
		}
	})
}
