package graph

import (
	"runtime"
	"sync"
)

// ParallelNodes runs fn(w, v) for every node of g, partitioning the node
// range into contiguous chunks across up to GOMAXPROCS workers. Each worker
// obtains one Walker through acquire and hands it back through release when
// its chunk is done; passing nil for both makes every worker create (and
// drop) a fresh Walker. The acquire/release pair is how callers pool
// Walkers across repeated sweeps — see core.Extractor.
//
// fn runs concurrently across chunks: it must only write state owned by v
// (per-node slots of preallocated slices are fine). The chunking is
// deterministic, so any per-node output is independent of the worker count.
func ParallelNodes(g *Graph, acquire func() *Walker, release func(*Walker), fn func(w *Walker, v int)) {
	ParallelRange(g, g.N(), acquire, release, fn)
}

// ParallelRange is ParallelNodes over an arbitrary index space 0..count-1:
// the unit of work need not be a node (the MS-BFS drivers use one index per
// 64-source batch). The same ownership and determinism rules apply.
//
// When the index space is exactly the node range of the graph, chunks are
// sized by CSR edge count rather than node count: per-node BFS work is
// proportional to the flooded neighborhood, and degree is its cheapest
// deterministic proxy, so skewed topologies keep the worker pool saturated
// instead of leaving one worker with all the dense chunks.
func ParallelRange(g *Graph, count int, acquire func() *Walker, release func(*Walker), fn func(w *Walker, i int)) {
	var weight func(i int) int
	if count == g.N() {
		offsets := g.offsets
		weight = func(i int) int { return int(offsets[i+1]-offsets[i]) + 1 }
	}
	ParallelRangeWeighted(g, count, weight, acquire, release, fn)
}

// ParallelRangeWeighted is ParallelRange under an explicit per-index work
// weight (nil means uniform). The Voronoi stage weights each 64-source
// pruned batch by the summed degree of its sites. Weights only move the chunk
// boundaries — which indices exist and what fn may write is unchanged — and
// the boundaries depend only on (count, weights, GOMAXPROCS), so outputs
// stay deterministic for any worker count.
func ParallelRangeWeighted(g *Graph, count int, weight func(i int) int, acquire func() *Walker, release func(*Walker), fn func(w *Walker, i int)) {
	body := func(_, lo, hi int) {
		var w *Walker
		if acquire != nil {
			w = acquire()
		} else {
			w = NewWalker(g)
		}
		for v := lo; v < hi; v++ {
			fn(w, v)
		}
		if release != nil {
			release(w)
		}
	}
	if weight == nil {
		ParallelChunks(count, runtime.GOMAXPROCS(0), body)
		return
	}
	ParallelChunksWeighted(count, runtime.GOMAXPROCS(0), weight, body)
}

// ParallelChunks partitions 0..count-1 into at most maxChunks contiguous
// chunks and runs fn(ci, lo, hi) concurrently, one goroutine per chunk;
// chunk ci covers the half-open range [lo, hi). It is the scheduling
// primitive under ParallelNodes/ParallelRange, exposed for callers that
// need per-chunk state other than a Walker (the simnet round engine keys
// its per-worker send queues by ci).
//
// The chunk boundaries depend only on count and maxChunks, and chunk ci
// always covers lower indices than chunk ci+1, so callers that combine
// per-chunk results in ci order observe a deterministic global order
// regardless of scheduling. fn must confine its writes to state owned by
// its chunk or its indices. With a single chunk, fn runs inline on the
// calling goroutine. A panic in any chunk is re-raised on the calling
// goroutine after all chunks finish.
func ParallelChunks(count, maxChunks int, fn func(ci, lo, hi int)) {
	if count <= 0 {
		return
	}
	workers := maxChunks
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		fn(0, 0, count)
		return
	}
	chunk := (count + workers - 1) / workers
	var cuts []int
	for lo := 0; lo < count; lo += chunk {
		cuts = append(cuts, lo)
	}
	cuts = append(cuts, count)
	runChunks(cuts, fn)
}

// ParallelChunksWeighted is ParallelChunks with chunk boundaries balancing
// the total per-index weight instead of the index count: chunk ci ends at
// the first index whose weight prefix reaches (ci+1)/workers of the total.
// Weights below 1 count as 1. The boundaries are a pure function of
// (count, maxChunks, weights), so the same determinism contract applies.
func ParallelChunksWeighted(count, maxChunks int, weight func(i int) int, fn func(ci, lo, hi int)) {
	if count <= 0 {
		return
	}
	workers := maxChunks
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		fn(0, 0, count)
		return
	}
	total := 0
	for i := 0; i < count; i++ {
		w := weight(i)
		if w < 1 {
			w = 1
		}
		total += w
	}
	cuts := make([]int, 1, workers+1)
	acc, next := 0, 1
	for i := 0; i < count-1 && next < workers; i++ {
		w := weight(i)
		if w < 1 {
			w = 1
		}
		acc += w
		if acc*workers >= total*next {
			cuts = append(cuts, i+1)
			next++
		}
	}
	cuts = append(cuts, count)
	runChunks(cuts, fn)
}

// runChunks runs fn over the half-open ranges [cuts[ci], cuts[ci+1]),
// one goroutine per chunk, re-raising the first chunk panic on the calling
// goroutine after all chunks finish.
func runChunks(cuts []int, fn func(ci, lo, hi int)) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked bool
		panicVal any
	)
	for ci := 0; ci+1 < len(cuts); ci++ {
		wg.Add(1)
		go func(ci, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !panicked {
						panicked, panicVal = true, r
					}
					mu.Unlock()
				}
			}()
			fn(ci, lo, hi)
		}(ci, cuts[ci], cuts[ci+1])
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}
