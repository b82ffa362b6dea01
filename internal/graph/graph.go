// Package graph provides the connectivity-graph substrate: a compact
// undirected adjacency structure plus the breadth-first primitives the
// skeleton pipeline is built from (full, truncated, multi-source and
// obstacle-avoiding BFS).
//
// Nodes are dense integer IDs 0..N-1. Hop distances use int32; -1 means
// unreachable.
package graph

import (
	"cmp"
	"math"
	"runtime"
	"slices"

	"bfskel/internal/geom"
	"bfskel/internal/radio"
)

// Unreachable marks nodes a BFS did not reach.
const Unreachable int32 = -1

// Graph is an undirected graph over nodes 0..N-1, stored as one CSR
// (compressed sparse row) pair: the neighbors of v are
// targets[offsets[v]:ends[v]], ascending, so iteration walks one contiguous
// array and the bit-parallel MS-BFS kernel (msbfs.go) indexes edges
// directly. Build, Subgraph and FromEdges write it; New returns an
// edge-list Builder for hand-made graphs.
type Graph struct {
	offsets []int32
	targets []int32
	// ends[v] is the end of v's row: an alias of offsets[1:] until the
	// first churn mutation gives the overlay its own copy (overlay.go).
	ends  []int32
	edges int

	// batchOrder is an optional node permutation grouping spatially close
	// nodes (Z-curve over Build's cell grid). The batched MS-BFS kernel
	// forms its 64-source batches along it so the sources' balls overlap
	// maximally; nil means ID order. Per-source results are exact, so the
	// ordering affects cost only, never output.
	batchOrder []int32

	// ov, when non-nil, is the churn overlay (overlay.go): tombstoned
	// nodes plus shortened adjacency rows, edited in place.
	ov *overlay
}

// Builder collects the edges of a hand-made graph; Freeze assembles it.
type Builder struct {
	n     int
	edges [][2]int32
}

// New returns an edge-list builder for a graph with n nodes.
func New(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v int) {
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Freeze assembles the recorded edges through FromEdges, panicking on an
// edge FromEdges rejects (out of range, a self-loop, or listed twice).
func (b *Builder) Freeze() *Graph {
	g, err := FromEdges(b.n, b.edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.ends) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.ends[v] - g.offsets[v]) }

// Neighbors returns the adjacency list of v, ascending, capacity-capped so
// an append cannot clobber the next row. The returned slice is shared with
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	end := g.ends[v]
	return g.targets[g.offsets[v]:end:end]
}

// AvgDegree returns the average node degree 2E/N.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.N())
}

// HasEdge reports whether u and v are adjacent. O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	return ok
}

// BatchOrder exposes the Z-curve node permutation recorded by Build, or nil
// when none is set (then ID order stands in). Callers that group work into
// 64-wide MS-BFS batches (the core Voronoi stage sorts its sites along it)
// read this to co-locate sources; the slice is shared and must not be
// modified.
func (g *Graph) BatchOrder() []int32 {
	if len(g.batchOrder) == g.N() {
		return g.batchOrder
	}
	return nil
}

// Build constructs the connectivity graph for the given node positions under
// a radio model. Probabilistic links are drawn once per unordered pair with
// the pair-seeded deterministic coin, so the same (positions, model, seed)
// always produces the same graph. A uniform spatial hash keeps the pair scan
// near-linear for bounded-range models. Node chunks scan in parallel for
// forward links (j > i); the result does not depend on GOMAXPROCS.
func Build(pts []geom.Point, m radio.Model, seed int64) *Graph {
	n := len(pts)
	maxR := m.MaxRange()
	if n == 0 || maxR <= 0 {
		return fromUpper(make([]int32, n), nil)
	}
	cells := newCellIndex(pts, maxR)
	maxR2 := maxR * maxR
	count := make([]int32, n)
	runs := make([][]int32, runtime.GOMAXPROCS(0))
	ParallelChunks(n, len(runs), func(ci, lo, hi int) {
		var run []int32
		for i := lo; i < hi; i++ {
			start := len(run)
			run = cells.appendLater(run, i)
			end := start
			for _, j := range run[start:] {
				if d2 := pts[i].Dist2(pts[j]); d2 <= maxR2 {
					if p := m.LinkProb(math.Sqrt(d2)); p >= 1 || p > 0 && pairCoin(seed, i, int(j)) < p {
						run[end] = j
						end++
					}
				}
			}
			run = run[:end]
			slices.Sort(run[start:])
			count[i] = int32(end - start)
		}
		runs[ci] = run
	})
	g := fromUpper(count, runs)
	g.batchOrder = cells.zOrder()
	return g
}

// Calibrate builds the graph under m, rescaling m's base range until the
// realised average degree is within 1% of deg (the analytic range
// undershoots in narrow corridors): up to four builds, then a fifth if the
// fourth misses. A model without a base range, or deg <= 0, builds once.
func Calibrate(pts []geom.Point, m radio.Model, deg float64, seed int64) (*Graph, radio.Model) {
	r, ok := radio.BaseRange(m)
	for iter := 0; ok && deg > 0 && iter < 4; iter++ {
		g := Build(pts, m, seed)
		actual := g.AvgDegree()
		switch {
		case actual <= 0:
			r *= 1.5
		case math.Abs(actual-deg)/deg < 0.01:
			return g, m
		default:
			r *= math.Sqrt(deg / actual)
		}
		m, _ = radio.WithRange(m, r)
	}
	return Build(pts, m, seed), m
}

// pairCoin returns a deterministic uniform [0,1) value for the unordered
// pair (i, j) under the given seed, via a splitmix64-style mix.
func pairCoin(seed int64, i, j int) float64 {
	x := uint64(seed)<<1 ^ 0x9e3779b97f4a7c15
	x ^= uint64(i)*0xbf58476d1ce4e5b9 + uint64(j)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// cellIndex is a uniform-grid bucketing of points used by Build. The grid is
// stored as a counting-sorted flat layout (start/items, the same CSR idea as
// the adjacency): cell c holds items[start[c]:start[c+1]], each bucket
// keeping ascending point order. A hash map fallback covers degenerate
// inputs whose bounding box spans far more cells than points — there the
// dense array would be mostly empty padding.
type cellIndex struct {
	pts   []geom.Point
	cell  float64
	minX  float64
	minY  float64
	cols  int
	rows  int
	start []int32
	items []int32
	// bucket is the sparse fallback; nil when the dense grid is in use.
	bucket map[int][]int32
}

// sparseCellFactor bounds the dense grid: when the bounding box covers more
// than this many cells per point, Build falls back to hashed buckets.
const sparseCellFactor = 4

func newCellIndex(pts []geom.Point, cell float64) *cellIndex {
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := pts[0].X, pts[0].Y
	for _, p := range pts[1:] {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	ci := &cellIndex{pts: pts, cell: cell, minX: minX, minY: minY}
	// Cell counts are compared in floating point first so a pathological
	// extent/cell ratio cannot overflow the int conversion.
	colsF := math.Floor((maxX-minX)/cell) + 1
	rowsF := math.Floor((maxY-minY)/cell) + 1
	if colsF*rowsF > float64(sparseCellFactor*len(pts)+64) {
		ci.bucket = make(map[int][]int32, len(pts))
		for i, p := range pts {
			k := sparseKey(ci.cellOf(p))
			ci.bucket[k] = append(ci.bucket[k], int32(i))
		}
		return ci
	}
	ci.cols, ci.rows = int(colsF), int(rowsF)
	cells := ci.cols * ci.rows
	ci.start = make([]int32, cells+1)
	for _, p := range pts {
		ci.start[ci.key(p)+1]++
	}
	for c := 0; c < cells; c++ {
		ci.start[c+1] += ci.start[c]
	}
	ci.items = make([]int32, len(pts))
	cursor := make([]int32, cells)
	for i, p := range pts {
		k := ci.key(p)
		ci.items[ci.start[k]+cursor[k]] = int32(i)
		cursor[k]++
	}
	return ci
}

// cellOf returns the integer grid coordinates of p.
func (ci *cellIndex) cellOf(p geom.Point) (cx, cy int) {
	return int((p.X - ci.minX) / ci.cell), int((p.Y - ci.minY) / ci.cell)
}

func (ci *cellIndex) key(p geom.Point) int {
	cx, cy := ci.cellOf(p)
	return cy*ci.cols + cx
}

// sparseKey packs grid coordinates into a map key without needing the cell
// count; a collision only adds candidates, which Build's distance check
// filters out.
func sparseKey(cx, cy int) int {
	return cy<<32 ^ cx
}

// zOrder returns the point IDs grouped by grid cell with the cells visited
// along the Z-curve (Morton order), so any run of consecutive entries covers
// a compact 2D patch — the source ordering the MS-BFS kernel batches by.
// Returns nil (ID order) for the sparse fallback, where the grid has no
// dense coordinates to interleave.
func (ci *cellIndex) zOrder() []int32 {
	if ci.bucket != nil {
		return nil
	}
	type zCell struct {
		key  uint64
		cell int32
	}
	occupied := make([]zCell, 0, len(ci.pts))
	for c := 0; c < ci.cols*ci.rows; c++ {
		if ci.start[c+1] > ci.start[c] {
			occupied = append(occupied, zCell{morton(c%ci.cols, c/ci.cols), int32(c)})
		}
	}
	slices.SortFunc(occupied, func(a, b zCell) int { return cmp.Compare(a.key, b.key) })
	order := make([]int32, 0, len(ci.items))
	for _, zc := range occupied {
		order = append(order, ci.items[ci.start[zc.cell]:ci.start[zc.cell+1]]...)
	}
	return order
}

// morton interleaves the bits of x and y (x in the even positions) into one
// Z-curve key.
func morton(x, y int) uint64 {
	return spreadBits(uint32(x)) | spreadBits(uint32(y))<<1
}

// spreadBits inserts a zero bit between every bit of x.
func spreadBits(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// appendLater appends to dst every point j > i in the 3x3 cell block
// around point i: the candidates for i's forward links.
func (ci *cellIndex) appendLater(dst []int32, i int) []int32 {
	cx, cy := ci.cellOf(ci.pts[i])
	for y := cy - 1; y <= cy+1; y++ {
		for x := cx - 1; x <= cx+1; x++ {
			var cellPts []int32
			if ci.bucket != nil {
				cellPts = ci.bucket[sparseKey(x, y)]
			} else {
				if x < 0 || y < 0 || x >= ci.cols || y >= ci.rows {
					continue
				}
				k := y*ci.cols + x
				cellPts = ci.items[ci.start[k]:ci.start[k+1]]
			}
			for _, j := range cellPts {
				if int(j) > i {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}
