package graph

import "slices"

// BFS returns hop distances from src to every node (Unreachable for nodes in
// other components).
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.N())
	NewWalker(g).BFSInto(src, dist)
	return dist
}

// BFSPaths returns hop distances and a parent array (parent[src] == src,
// Unreachable elsewhere when unvisited) for shortest-path reconstruction.
func (g *Graph) BFSPaths(src int) (dist, parent []int32) {
	dist, parent = make([]int32, g.N()), make([]int32, g.N())
	NewWalker(g).BFSPathsInto(src, dist, parent)
	return dist, parent
}

// PathTo reconstructs the path from the BFS source to dst using a parent
// array from BFSPaths. Returns nil if dst was unreachable.
func PathTo(parent []int32, dst int) []int32 {
	if parent[dst] == Unreachable {
		return nil
	}
	var rev []int32
	for v := int32(dst); ; v = parent[v] {
		rev = append(rev, v)
		if parent[v] == v {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// khopScratch holds reusable buffers for truncated BFS sweeps, plus
// since-last-drain work counters (see Walker.TakeCounts). Levels are read
// off the queue's level boundaries, so the only n-sized buffer is the
// epoch stamp; the queue grows with the largest region flooded.
type khopScratch struct {
	stamp   []int32
	queue   []int32
	epoch   int32
	sweeps  int
	visited int
}

func newKHopScratch(n int) *khopScratch {
	return &khopScratch{stamp: make([]int32, n)}
}

// runUntil performs BFS from src truncated at k hops and calls visit(node,
// dist) for every reached node other than src; visit returning false
// abandons the sweep immediately. The scratch stays consistent for the
// next sweep (the epoch stamp makes partially filled buffers harmless).
// Level d's nodes are queue[lo:hi] while level d+1 is appended behind
// them.
func (s *khopScratch) runUntil(g *Graph, src, k int, visit func(v, d int32) bool) {
	s.sweeps++
	s.epoch++
	s.stamp[src] = s.epoch
	queue := append(s.queue[:0], int32(src))
	for d, lo := int32(1), 0; int(d) <= k && lo < len(queue); d++ {
		hi := len(queue)
		for i := lo; i < hi; i++ {
			for _, v := range g.Neighbors(int(queue[i])) {
				if s.stamp[v] != s.epoch {
					s.stamp[v] = s.epoch
					queue = append(queue, v)
					s.visited++
					if !visit(v, d) {
						s.queue = queue
						return
					}
				}
			}
		}
		lo = hi
	}
	s.queue = queue
}

// KHopNeighbors returns the nodes at hop distance 1..k from src.
func (g *Graph) KHopNeighbors(src, k int) []int32 {
	var out []int32
	NewWalker(g).Walk(src, k, func(v, _ int32) { out = append(out, v) })
	return out
}

// KHopCount returns |N_k(src)|, the k-hop neighborhood size of src
// excluding src itself.
func (g *Graph) KHopCount(src, k int) int {
	n := 0
	NewWalker(g).Walk(src, k, func(_, _ int32) { n++ })
	return n
}

// AllKHopCounts computes |N_k(v)| for every node, in parallel. This is the
// centralized analogue of the paper's first round of controlled flooding
// (Sec. III-A); it runs the MS-BFS kernel.
func (g *Graph) AllKHopCounts(k int) []int {
	n := g.N()
	out := make([]int, n)
	if k <= 0 || n == 0 {
		return out
	}
	g.ballBatches(k, sumPush{}, nil, 0, nil, nil, func(v int32, levels []int32) {
		for _, c := range levels {
			out[v] += int(c)
		}
	})
	return out
}

// BallSizesInto computes, for every node v and every radius r in 1..k, the
// cumulative ball size |N_r(v)| (excluding v) into out[v][r-1] (each row
// must have length k; previous contents are overwritten), with an optional
// Walker acquire/release pair for pooling — see ParallelNodes. It runs the
// batched kernel.
func (g *Graph) BallSizesInto(k int, out [][]int, acquire func() *Walker, release func(*Walker)) {
	g.BallSizesIntoKernel(KernelBatched, k, out, acquire, release)
}

// BallSizesIntoKernel is BallSizesInto under an explicit kernel choice:
// per-source walker sweeps, or the bit-parallel MS-BFS kernel advancing 64
// sources per pass (msbfs.go). Both kernels produce identical results; only
// the sweep cost differs. The batched path runs the level-tally kernel of
// BallSizesAndSumsInto and writes the rows from its tallies.
func (g *Graph) BallSizesIntoKernel(kern Kernel, k int, out [][]int, acquire func() *Walker, release func(*Walker)) {
	if k <= 0 || g.N() == 0 {
		return
	}
	if kern == KernelWalker {
		ParallelNodes(g, acquire, release, func(w *Walker, v int) {
			ballSizesWalker(w, v, out[v])
		})
		return
	}
	g.ballBatches(k, sumPush{}, nil, 0, acquire, release, func(v int32, levels []int32) {
		cumulate(out[v], levels)
	})
}

// BallSizesAndSumsInto computes the ball-size matrix of every node as one
// flat matrix of stride k — balls[v*k+r-1] = |N_r(v)| (excluding v) for r
// in 1..k, N*k entries, all overwritten — and from the same flood the
// centrality tallies of Def. 3: sums[v] (len >= N, overwritten) receives
// the sum of |N_sumK(u)| over every u != v within sumL hops of v — what
// BallWeightedSumsInto(KernelBatched, sumL, w, ...) computes for
// w[u] = balls[u*k+sumK-1] — without a second sweep. Each 64-source batch
// pushes its ball sizes to the nodes it reached, which hop-distance
// symmetry makes the same sum (msbfs.go). The push needs
// 1 <= sumK <= sumL <= k, since a batch's sumK-ball sizes are only final
// once it has settled sumL hops; otherwise only the ball sizes are
// computed and sums is left untouched. It reports whether it pushed.
func (g *Graph) BallSizesAndSumsInto(k, sumK, sumL int, balls []int32, sums []int, acquire func() *Walker, release func(*Walker)) bool {
	n := g.N()
	pushing := sumK >= 1 && sumK <= sumL && sumL <= k
	var push sumPush
	if pushing {
		clear(sums[:n])
		push = sumPush{width: sumK, radius: sumL, out: sums}
	}
	if k > 0 && n > 0 {
		g.ballBatches(k, push, nil, 0, acquire, release, func(v int32, levels []int32) {
			cumulate(balls[int(v)*k:(int(v)+1)*k], levels)
		})
	}
	return pushing
}

// Components labels connected components; it returns the label of each node
// and the component count. Labels are assigned in increasing order of the
// smallest node ID in the component.
func (g *Graph) Components() (label []int, count int) {
	label = make([]int, g.N())
	for i := range label {
		label[i] = -1
	}
	var queue []int32
	for v := 0; v < g.N(); v++ {
		if label[v] != -1 {
			continue
		}
		label[v] = count
		queue = queue[:0]
		queue = append(queue, int32(v))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.Neighbors(int(u)) {
				if label[w] == -1 {
					label[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return label, count
}

// LargestComponent returns the node set of the largest connected component,
// sorted by node ID.
func (g *Graph) LargestComponent() []int32 {
	label, count := g.Components()
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, l := range label {
		sizes[l]++
	}
	best := 0
	for c := 1; c < count; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	out := make([]int32, 0, sizes[best])
	for v, l := range label {
		if l == best {
			out = append(out, int32(v))
		}
	}
	return out
}

// IsConnected reports whether the graph is a single connected component.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	_, count := g.Components()
	return count == 1
}

// Subgraph returns the induced subgraph over keep (node IDs in the original
// graph) plus the mapping back to original IDs. Node i of the subgraph is
// keep[i]; the subgraph's rows are sorted whatever keep's order.
func (g *Graph) Subgraph(keep []int32) (*Graph, []int32) {
	index := make([]int32, g.N())
	for i := range index {
		index[i] = -1
	}
	for i, v := range keep {
		index[v] = int32(i)
	}
	// Node i's forward list: its kept neighbours renamed above i, sorted
	// only when keep or the parent row is out of order.
	count := make([]int32, len(keep))
	fwd := make([]int32, 0, g.edges*len(keep)/max(g.N(), 1))
	for i, v := range keep {
		start, sorted := len(fwd), true
		for _, w := range g.Neighbors(int(v)) {
			if j := index[w]; j > int32(i) {
				sorted = sorted && (len(fwd) == start || fwd[len(fwd)-1] < j)
				fwd = append(fwd, j)
			}
		}
		if !sorted {
			slices.Sort(fwd[start:])
		}
		count[i] = int32(len(fwd) - start)
	}
	sub := fromUpper(count, [][]int32{fwd})
	if len(g.batchOrder) == g.N() {
		// Carry the spatial batch ordering over: keep's nodes in the
		// parent's Z-curve order, renamed to subgraph IDs.
		sub.batchOrder = make([]int32, 0, len(keep))
		for _, v := range g.batchOrder {
			if j := index[v]; j >= 0 {
				sub.batchOrder = append(sub.batchOrder, j)
			}
		}
	}
	orig := make([]int32, len(keep))
	copy(orig, keep)
	return sub, orig
}

// Eccentricity returns the maximum finite hop distance from src.
func (g *Graph) Eccentricity(src int) int {
	dist := g.BFS(src)
	max := 0
	for _, d := range dist {
		if d != Unreachable && int(d) > max {
			max = int(d)
		}
	}
	return max
}

// DiameterLowerBound estimates the hop diameter with a double BFS sweep.
func (g *Graph) DiameterLowerBound(src int) int {
	dist := g.BFS(src)
	far := src
	for v, d := range dist {
		if d != Unreachable && int(d) > int(dist[far]) {
			far = v
		}
	}
	return g.Eccentricity(far)
}
