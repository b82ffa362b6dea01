// Package graph is a miniature stand-in for the real graph package: just
// enough of the chunk-parallel driver surface for the chunkshare analyzer
// corpus. The bodies run the callback serially — the analyzer only cares
// about the call shape and the package path.
package graph

// Graph is a placeholder node container.
type Graph struct{ n int }

// N returns the node count.
func (g *Graph) N() int { return g.n }

// Walker is a placeholder per-worker scratch carrier.
type Walker struct{ g *Graph }

// NewWalker creates a walker for g.
func NewWalker(g *Graph) *Walker { return &Walker{g: g} }

// ParallelNodes runs fn for every node, chunked across workers.
func ParallelNodes(g *Graph, acquire func() *Walker, release func(*Walker), fn func(w *Walker, v int)) {
	ParallelRange(g, g.N(), acquire, release, fn)
}

// ParallelRange is ParallelNodes over an arbitrary index space.
func ParallelRange(g *Graph, count int, acquire func() *Walker, release func(*Walker), fn func(w *Walker, i int)) {
	ParallelChunks(count, 1, func(_, lo, hi int) {
		w := NewWalker(g)
		for v := lo; v < hi; v++ {
			fn(w, v)
		}
	})
}

// ParallelChunksWeighted is ParallelChunks with weight-balanced chunks.
func ParallelChunksWeighted(count, maxChunks int, weight func(i int) int, fn func(ci, lo, hi int)) {
	ParallelChunks(count, maxChunks, fn)
}

// ParallelChunks partitions 0..count-1 into chunks and runs fn per chunk.
func ParallelChunks(count, maxChunks int, fn func(ci, lo, hi int)) {
	if count > 0 {
		fn(0, 0, count)
	}
}
