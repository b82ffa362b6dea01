package core

// Epoch-stamped flat scratch shared by the refine stage and the Voronoi
// stage. The hundreds of small claims and union-finds refine runs used to
// build a hash map each; with n-sized stamp arrays a "cleared" state is one
// epoch increment, so per-run cost is proportional to the touched region
// and per-extraction allocation is zero once the pools are warm.

// floodScratch is two n-capacity node lists (queue, next) the Voronoi
// stage borrows as frontier buffers, plus a mark set (markStamp/markVal) for
// membership tests and node→value claims. The mark stamp starts over when
// the backing arrays are (re)allocated, so a fresh array's zeros never
// collide with a live epoch.
type floodScratch struct {
	queue []int32
	next  []int32

	markStamp []int32
	markVal   []int32
	markEpoch int32
}

// stampWrap bounds the epoch counters; far beyond any realistic extraction
// count, it keeps increments from ever wrapping into a stale stamp.
const stampWrap = 1 << 30

// ensure sizes the scratch to n nodes, invalidating all marks when the
// arrays are replaced or the mark epoch nears wrap-around.
func (f *floodScratch) ensure(n int) {
	if cap(f.markStamp) < n || f.markEpoch >= stampWrap {
		f.markStamp = make([]int32, n)
		f.markVal = make([]int32, n)
		f.markEpoch = 0
	}
	f.markStamp = f.markStamp[:n]
	f.markVal = f.markVal[:n]
	if cap(f.queue) < n {
		f.queue = make([]int32, 0, n)
		f.next = make([]int32, 0, n)
	}
}

// beginMark starts a fresh (empty) mark set.
func (f *floodScratch) beginMark() { f.markEpoch++ }

// mark adds v to the mark set with an associated value.
func (f *floodScratch) mark(v int32, val int32) {
	f.markStamp[v] = f.markEpoch
	f.markVal[v] = val
}

// marked reports membership and the associated value.
func (f *floodScratch) marked(v int32) (int32, bool) {
	if f.markStamp[v] == f.markEpoch {
		return f.markVal[v], true
	}
	return 0, false
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
