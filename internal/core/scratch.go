package core

// Flat n-sized scratch shared by the refine stage and the Voronoi stage.
// The union-find is "cleared" by one epoch increment and borrowed arrays
// are zeroed over what was touched, so per-run cost is proportional to the
// touched region and per-extraction allocation is zero once the pools are
// warm.

// floodScratch is two n-capacity node lists (queue, next) and one n-sized
// int32 array (vals) that the Voronoi and refine stages borrow. vals is
// all-zero between borrowers: each one zeroes what it wrote before it
// returns.
type floodScratch struct {
	queue []int32
	next  []int32
	vals  []int32
}

// stampWrap bounds the epoch counters; far beyond any realistic extraction
// count, it keeps increments from ever wrapping into a stale stamp.
const stampWrap = 1 << 30

// ensure sizes the scratch to n nodes.
func (f *floodScratch) ensure(n int) {
	if cap(f.vals) < n {
		f.vals = make([]int32, n)
	}
	f.vals = f.vals[:n]
	if cap(f.queue) < n {
		f.queue = make([]int32, 0, n)
		f.next = make([]int32, 0, n)
	}
}

// stampedUF is a dense union-find over node IDs whose "all singletons"
// reset is one epoch increment: an element is initialized lazily the first
// time find touches it in the current epoch. It is the refine stage's one
// union-find: end-node clustering (over end indices), the per-cluster
// spanning forests and the cycle tests (over node IDs).
type stampedUF struct {
	parent []int32
	stamp  []int32
	epoch  int32
}

// reset clears the structure to all-singletons over 0..n-1.
func (u *stampedUF) reset(n int) {
	if cap(u.parent) < n || u.epoch >= stampWrap {
		u.parent = make([]int32, n)
		u.stamp = make([]int32, n)
		u.epoch = 0
	}
	u.parent = u.parent[:n]
	u.stamp = u.stamp[:n]
	u.epoch++
}

func (u *stampedUF) find(x int32) int32 {
	if u.stamp[x] != u.epoch {
		u.stamp[x] = u.epoch
		u.parent[x] = x
		return x
	}
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b; it reports whether they were distinct.
func (u *stampedUF) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[rb] = ra
	return true
}
