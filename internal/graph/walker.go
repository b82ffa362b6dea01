package graph

import "math"

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

// BandEnds returns the two farthest-apart nodes of a band (a node set,
// such as the segment nodes of one pair of adjacent Voronoi cells — the
// paper's "end nodes", Sec. III-D) by a double sweep: the band node
// farthest from start, then the band node farthest from that one. start
// must belong to the band. Both sweeps are BandWalk's, over one marking of
// the band.
func (w *Walker) BandEnds(band []int32, start int32) (int32, int32) {
	if len(band) == 1 {
		return band[0], band[0]
	}
	in := w.markBand(band)
	e1 := w.bandWalk(in, start, nil)
	return e1, w.bandWalk(in, e1, nil)
}

// BandWalk runs one band sweep from src, which must belong to the band: a
// BFS through band nodes that also crosses single non-band bridge nodes
// (at distance +2). A node's distance is fixed when it is first reached.
// visit, when non-nil, is called with every reached band node and its
// distance, src first at 0. It returns the farthest reached band node, the
// lowest ID among those at the maximum distance, so the result is a pure
// function of the band. The sweep runs over the walker's k-hop scratch:
// band membership and visited are two epochs of its one stamp array (a
// bridge node already scanned carries the visit epoch negated), so it
// costs the band's neighbourhood and nothing n-sized.
func (w *Walker) BandWalk(band []int32, src int32, visit func(v, d int32)) int32 {
	return w.bandWalk(w.markBand(band), src, visit)
}

// markBand stamps the band's nodes with a fresh epoch and returns it.
func (w *Walker) markBand(band []int32) int32 {
	s := w.s
	if s.epoch > math.MaxInt32-3 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch++
	in := s.epoch
	for _, v := range band {
		s.stamp[v] = in
	}
	return in
}

// bandWalk is BandWalk over the band marked with epoch in. The distance
// rides in the queue next to the node. Every stamp at or above in marks a
// band node: the band stamp itself, or a visit of this or the previous
// sweep.
func (w *Walker) bandWalk(in, src int32, visit func(v, d int32)) int32 {
	g, s := w.g, w.s
	s.epoch++
	seen := s.epoch
	stamp := s.stamp
	stamp[src] = seen
	if visit != nil {
		visit(src, 0)
	}
	queue := append(s.queue[:0], src, 0)
	far, farD := src, int32(0)
	reach := func(v, d int32) {
		if stamp[v] == seen {
			return
		}
		stamp[v] = seen
		if visit != nil {
			visit(v, d)
		}
		// Strictly farther wins; at equal distance the lower ID wins.
		if d > farD || (d == farD && v < far) {
			far, farD = v, d
		}
		queue = append(queue, v, d)
	}
	for head := 0; head < len(queue); head += 2 {
		u, du := queue[head], queue[head+1]
		for _, v := range g.Neighbors(int(u)) {
			st := stamp[v]
			if st >= in {
				reach(v, du+1)
				continue
			}
			// A bridge node's first scan reaches all its band neighbours,
			// so every later scan of it in this sweep is a no-op; -seen
			// marks it scanned and stays below every band stamp.
			if st == -seen {
				continue
			}
			stamp[v] = -seen
			for _, x := range g.Neighbors(int(v)) {
				if stamp[x] >= in {
					reach(x, du+2)
				}
			}
		}
	}
	s.queue = queue
	return far
}
