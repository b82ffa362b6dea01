package graph

import (
	"slices"
	"sync"
)

// BFS returns hop distances from src to every node (Unreachable for nodes in
// other components).
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSPaths returns hop distances and a parent array (parent[src] == src,
// Unreachable elsewhere when unvisited) for shortest-path reconstruction.
func (g *Graph) BFSPaths(src int) (dist, parent []int32) {
	dist = make([]int32, g.N())
	parent = make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = Unreachable
	}
	dist[src] = 0
	parent[src] = int32(src)
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
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
// since-last-drain work counters (see Walker.TakeCounts).
type khopScratch struct {
	stamp   []int32
	dist    []int32
	queue   []int32
	epoch   int32
	sweeps  int
	visited int
}

func newKHopScratch(n int) *khopScratch {
	return &khopScratch{
		stamp: make([]int32, n),
		dist:  make([]int32, n),
		queue: make([]int32, 0, n),
	}
}

// run performs BFS from src truncated at k hops and calls visit(node, dist)
// for every reached node other than src.
func (s *khopScratch) run(g *Graph, src, k int, visit func(v, d int32)) {
	s.sweeps++
	s.epoch++
	s.stamp[src] = s.epoch
	s.dist[src] = 0
	s.queue = s.queue[:0]
	s.queue = append(s.queue, int32(src))
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		du := s.dist[u]
		if int(du) == k {
			continue
		}
		for _, v := range g.adj[u] {
			if s.stamp[v] != s.epoch {
				s.stamp[v] = s.epoch
				s.dist[v] = du + 1
				s.queue = append(s.queue, v)
				s.visited++
				if visit != nil {
					visit(v, du+1)
				}
			}
		}
	}
}

// runUntil is run with early termination: visit returning false abandons
// the sweep immediately. The scratch stays consistent for the next sweep
// (the epoch stamp makes partially filled buffers harmless).
func (s *khopScratch) runUntil(g *Graph, src, k int, visit func(v, d int32) bool) {
	s.sweeps++
	s.epoch++
	s.stamp[src] = s.epoch
	s.dist[src] = 0
	s.queue = s.queue[:0]
	s.queue = append(s.queue, int32(src))
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		du := s.dist[u]
		if int(du) == k {
			continue
		}
		for _, v := range g.adj[u] {
			if s.stamp[v] != s.epoch {
				s.stamp[v] = s.epoch
				s.dist[v] = du + 1
				s.queue = append(s.queue, v)
				s.visited++
				if !visit(v, du+1) {
					return
				}
			}
		}
	}
}

// KHopNeighbors returns the nodes at hop distance 1..k from src.
func (g *Graph) KHopNeighbors(src, k int) []int32 {
	s := newKHopScratch(g.N())
	var out []int32
	s.run(g, src, k, func(v, _ int32) { out = append(out, v) })
	return out
}

// KHopCount returns |N_k(src)|, the k-hop neighborhood size of src
// excluding src itself.
func (g *Graph) KHopCount(src, k int) int {
	s := newKHopScratch(g.N())
	n := 0
	s.run(g, src, k, func(_, _ int32) { n++ })
	return n
}

// AllKHopCounts computes |N_k(v)| for every node, in parallel. This is the
// centralized analogue of the paper's first round of controlled flooding
// (Sec. III-A); the counts run as width-1 rows through the MS-BFS kernel,
// which freezes the graph if needed.
func (g *Graph) AllKHopCounts(k int) []int {
	n := g.N()
	out := make([]int, n)
	if k <= 0 || n == 0 {
		return out
	}
	rows := make([][]int, n)
	for v := range rows {
		rows[v] = out[v : v+1 : v+1]
	}
	g.BallSizesInto(k, rows, nil, nil)
	return out
}

// BallSizesInto computes, for every node v and every radius r in 1..k, the
// cumulative ball size |N_r(v)| (excluding v) into out[v][r-1] (each row
// must have length k; previous contents are overwritten), with an optional
// Walker acquire/release pair for pooling — see ParallelNodes. It runs the
// batched kernel, freezing the graph if needed.
func (g *Graph) BallSizesInto(k int, out [][]int, acquire func() *Walker, release func(*Walker)) {
	g.BallSizesIntoKernel(KernelBatched, k, out, acquire, release)
}

// BallSizesIntoKernel is BallSizesInto under an explicit kernel choice:
// per-source walker sweeps, or the bit-parallel MS-BFS kernel advancing 64
// sources per pass (msbfs.go). Both kernels produce identical results; only
// the sweep cost differs.
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
	g.Freeze()
	g.ballSizesBatched(k, out, sumPush{}, acquire, release)
}

// BallSizesAndSumsInto is BallSizesInto that also yields the centrality
// tallies of Def. 3 from the same flood: sums[v] (len >= N, overwritten)
// receives the sum of |N_sumK(u)| over every u != v within sumL hops of v —
// what BallWeightedSumsInto(KernelBatched, sumL, w, ...) computes for
// w[u] = out[u][sumK-1] — without a second sweep. Each 64-source batch
// pushes its ball sizes to the nodes it reached, which hop-distance
// symmetry makes the same sum (msbfs.go). The push needs
// 1 <= sumK <= sumL <= k, since a batch's sumK-ball sizes are only final
// once it has settled sumL hops; otherwise only the ball sizes are
// computed and sums is left untouched. It reports whether it pushed.
func (g *Graph) BallSizesAndSumsInto(k, sumK, sumL int, out [][]int, sums []int, acquire func() *Walker, release func(*Walker)) bool {
	if sumK < 1 || sumK > sumL || sumL > k {
		g.BallSizesInto(k, out, acquire, release)
		return false
	}
	n := g.N()
	clear(sums[:n])
	if n > 0 {
		g.Freeze()
		g.ballSizesBatched(k, out, sumPush{width: sumK, radius: sumL, out: sums}, acquire, release)
	}
	return true
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
			for _, w := range g.adj[u] {
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

// invIndex is a pooled dense inverse-index array for Subgraph: new-graph
// position by original node ID, -1 elsewhere. The backing array is kept
// all -1 between uses (entries are restored after each call), so a call
// costs O(len(keep)) bookkeeping instead of building a hash map per call.
type invIndex struct {
	pos []int32
}

var invIndexPool = sync.Pool{New: func() any { return &invIndex{} }}

// grow returns the index sized for n nodes, preserving the all -1 invariant
// for any newly allocated tail.
func (ii *invIndex) grow(n int) []int32 {
	if cap(ii.pos) < n {
		ii.pos = make([]int32, n)
		for i := range ii.pos {
			ii.pos[i] = -1
		}
	}
	return ii.pos[:n]
}

// Subgraph returns the induced subgraph over keep (node IDs in the original
// graph) plus the mapping back to original IDs. Node i of the subgraph is
// keep[i]; the frozen subgraph's rows are sorted whatever keep's order.
func (g *Graph) Subgraph(keep []int32) (*Graph, []int32) {
	ii := invIndexPool.Get().(*invIndex)
	defer invIndexPool.Put(ii)
	index := ii.grow(g.N())
	for i, v := range keep {
		index[v] = int32(i)
	}
	// Node i's forward list: its kept neighbours renamed above i, sorted
	// only when keep or the parent row is out of order.
	count := make([]int32, len(keep))
	fwd := make([]int32, 0, g.edges*len(keep)/max(g.N(), 1))
	for i, v := range keep {
		start, sorted := len(fwd), true
		for _, w := range g.adj[v] {
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
	for _, v := range keep {
		index[v] = -1
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
