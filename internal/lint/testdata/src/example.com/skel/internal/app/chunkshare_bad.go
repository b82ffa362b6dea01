// Positive corpus for the chunkshare analyzer: parallel chunk callbacks
// writing to captured state they do not own.
package app

import "example.com/skel/internal/graph"

func chunkSharedCounter(g *graph.Graph) int {
	total := 0
	graph.ParallelNodes(g, nil, nil, func(w *graph.Walker, v int) {
		total += v // want "write to captured total inside a parallel chunk callback"
	})
	return total
}

func chunkSharedSlice(g *graph.Graph) []int {
	var out []int
	graph.ParallelNodes(g, nil, nil, func(w *graph.Walker, v int) {
		out = append(out, v) // want "write to captured out inside a parallel chunk callback"
	})
	return out
}

func chunkSharedMap(g *graph.Graph) map[int]bool {
	seen := make(map[int]bool)
	graph.ParallelChunks(g.N(), 4, func(ci, lo, hi int) {
		for v := lo; v < hi; v++ {
			seen[v] = true // want "write into captured map seen"
		}
	})
	return seen
}

func chunkSharedWeighted(g *graph.Graph) int {
	total := 0
	graph.ParallelChunksWeighted(g.N(), 4, func(i int) int { return i }, func(ci, lo, hi int) {
		total += hi - lo // want "write to captured total inside a parallel chunk callback"
	})
	return total
}
