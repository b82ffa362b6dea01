package graph

// Walker performs repeated truncated BFS sweeps over one graph while
// reusing its internal buffers, so per-sweep cost is proportional to the
// visited neighborhood only. It is the per-goroutine BFS execution context:
// the batched MS-BFS kernel hangs its bitmask scratch off the same walker
// (allocated on first batched use), so one pool serves both kernels and the
// work counters drain through one place. A Walker is not safe for
// concurrent use; create one per goroutine.
type Walker struct {
	g  *Graph
	s  *khopScratch
	ms *msbfsScratch
}

// NewWalker creates a walker for g.
func NewWalker(g *Graph) *Walker {
	return &Walker{g: g, s: newKHopScratch(g.N())}
}

// BFSInto is a full (untruncated) BFS from src into the caller-provided
// dist slice (len N, overwritten; Unreachable marks other components). The
// queue comes from the walker's scratch, so repeated calls allocate nothing.
func (w *Walker) BFSInto(src int, dist []int32) {
	w.bfsInto(src, dist, nil)
}

// BFSPathsInto is BFSInto plus a parent array for shortest-path
// reconstruction (parent[src] == src, Unreachable where unvisited), both
// caller-provided and overwritten.
func (w *Walker) BFSPathsInto(src int, dist, parent []int32) {
	w.bfsInto(src, dist, parent)
}

func (w *Walker) bfsInto(src int, dist, parent []int32) {
	s := w.s
	s.sweeps++
	for i := range dist {
		dist[i] = Unreachable
	}
	if parent != nil {
		for i := range parent {
			parent[i] = Unreachable
		}
		parent[src] = int32(src)
	}
	dist[src] = 0
	s.queue = s.queue[:0]
	s.queue = append(s.queue, int32(src))
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		du := dist[u]
		for _, v := range w.g.Neighbors(int(u)) {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				if parent != nil {
					parent[v] = u
				}
				s.queue = append(s.queue, v)
				s.visited++
			}
		}
	}
}

// Walk runs BFS from src truncated at k hops, calling visit(v, d) for every
// node reached at hop distance d in 1..k. src itself is not visited.
func (w *Walker) Walk(src, k int, visit func(v, d int32)) {
	w.s.runUntil(w.g, src, k, func(v, d int32) bool {
		visit(v, d)
		return true
	})
}

// WalkUntil is Walk with early termination: the sweep stops as soon as
// visit returns false. Use it when the answer can be decided before the
// whole k-hop ball is flooded (e.g. local-maximum tests).
func (w *Walker) WalkUntil(src, k int, visit func(v, d int32) bool) {
	w.s.runUntil(w.g, src, k, visit)
}

// HopDist returns the hop distance from src to dst when it is at most k,
// and k+1 when dst is farther or unreachable. The sweep stops as soon as
// dst is reached.
func (w *Walker) HopDist(src, dst, k int) int32 {
	if src == dst {
		return 0
	}
	dist := int32(k + 1)
	w.s.runUntil(w.g, src, k, func(v, d int32) bool {
		if int(v) == dst {
			dist = d
			return false
		}
		return true
	})
	return dist
}

// TakeCounts drains the walker's work counters: the number of truncated BFS
// sweeps run and nodes visited since the last drain. Pools (core.Extractor)
// drain on release, turning per-walker tallies into per-stage aggregates
// for the observability layer.
func (w *Walker) TakeCounts() (sweeps, visited int) {
	sweeps, visited = w.s.sweeps, w.s.visited
	w.s.sweeps, w.s.visited = 0, 0
	return sweeps, visited
}
