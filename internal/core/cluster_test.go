package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
)

// clusterEndsOracle is the end-node clustering as one serial flood per end:
// end i claims its own node and every node its flood reaches within radius
// hops, entering only nodes outside mask (the end itself expands
// regardless), and every claim on a node another end claimed first unites
// the two. It returns each end's smallest fellow member, a canonical form
// of the partition.
func clusterEndsOracle(g *graph.Graph, ends []endRef, radius int32, mask []bool) []int32 {
	var uf stampedUF
	uf.reset(len(ends))
	claimedBy := make(map[int32]int32)
	claim := func(i int, v int32) {
		if rep, ok := claimedBy[v]; ok {
			uf.union(rep, int32(i))
		} else {
			claimedBy[v] = int32(i)
		}
	}
	dist := make([]int32, g.N())
	for i, er := range ends {
		for v := range dist {
			dist[v] = -1
		}
		dist[er.node] = 0
		claim(i, er.node)
		queue := []int32{er.node}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if dist[u] == radius {
				continue
			}
			for _, v := range g.Neighbors(int(u)) {
				if dist[v] < 0 && !mask[v] {
					dist[v] = dist[u] + 1
					claim(i, v)
					queue = append(queue, v)
				}
			}
		}
	}
	return canonicalClusters(&uf, len(ends))
}

// canonicalClusters maps each of m union-find members to the smallest
// member of its set.
func canonicalClusters(uf *stampedUF, m int) []int32 {
	least := make(map[int32]int32)
	out := make([]int32, m)
	for i := range out {
		r := uf.find(int32(i))
		if _, ok := least[r]; !ok {
			least[r] = int32(i) // ascending i: the first member is the least
		}
		out[i] = least[r]
	}
	return out
}

// checkClusterEnds runs clusterEnds on a fresh engine, twice so the second
// run sees the scratch the first one left, and compares the partition with
// the per-end flood oracle; the borrowed owner array must come back zeroed.
func checkClusterEnds(t *testing.T, name string, g *graph.Graph, ends []endRef, radius int32, mask []bool) {
	t.Helper()
	want := clusterEndsOracle(g, ends, radius, mask)
	x := NewExtractor(g)
	x.fld.ensure(g.N())
	for run := 0; run < 2; run++ {
		x.uf.reset(len(ends))
		x.clusterEnds(&x.uf, ends, radius, mask)
		got := canonicalClusters(&x.uf, len(ends))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s radius=%d run=%d: end %d (node %d) joins end %d, oracle says %d",
					name, radius, run, i, ends[i].node, got[i], want[i])
			}
		}
		for v, o := range x.fld.vals {
			if o != 0 {
				t.Fatalf("%s radius=%d run=%d: owner of node %d left at %d", name, radius, run, v, o)
			}
		}
	}
}

// TestClusterEndsField: on a grid field with every fourth node masked and
// 300 ends (repeats and masked ends among them), the BFS clustering gives
// the per-end flood partition at every junction radius.
func TestClusterEndsField(t *testing.T) {
	g := nettest.Grid("window", 2500, 7, 1).Graph
	n := g.N()
	mask := make([]bool, n)
	for v := 0; v < n; v += 4 {
		mask[v] = true
	}
	ends := make([]endRef, 300)
	for i := range ends {
		ends[i] = endRef{edge: i / 2, node: int32(i * 53 % n)}
	}
	for _, radius := range []int32{1, 2, 3, 5} {
		checkClusterEnds(t, "window", g, ends, radius, mask)
	}
}

// FuzzClusterEnds checks clusterEnds against the per-end flood oracle on
// small generated graphs: n = 1 + size%200 nodes, an edge per byte pair of
// data (self-loops and repeats dropped), with ring set a cycle through every
// node, a mask of about maskPct% of the nodes, radius 1–5, and 1–200 ends
// drawn with replacement, the last repeating the first; every third end
// sits on a masked node when there is one.
func FuzzClusterEnds(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, uint8(9), false, uint8(30), uint8(2), uint8(5), int64(1))
	f.Add([]byte("end nodes around a skeleton junction"), uint8(120), true, uint8(25), uint8(4), uint8(90), int64(2))
	f.Add([]byte{}, uint8(0), false, uint8(0), uint8(0), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, size uint8, ring bool, maskPct, radius, nends uint8, seed int64) {
		n := 1 + int(size)%200
		type edge [2]int32
		seen := make(map[edge]bool)
		b := graph.New(n)
		add := func(u, v int) {
			if u > v {
				u, v = v, u
			}
			if e := (edge{int32(u), int32(v)}); u != v && !seen[e] {
				seen[e] = true
				b.AddEdge(u, v)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			add(int(data[i])%n, int(data[i+1])%n)
		}
		if ring {
			for v := 0; v < n; v++ {
				add(v, (v+1)%n)
			}
		}
		g := b.Freeze()
		rng := rand.New(rand.NewSource(seed))
		mask := make([]bool, n)
		var masked []int32
		for v := range mask {
			if rng.Intn(100) < int(maskPct%100) {
				mask[v] = true
				masked = append(masked, int32(v))
			}
		}
		ends := make([]endRef, 1+int(nends)%200)
		for i := range ends {
			node := int32(rng.Intn(n))
			if i%3 == 2 && len(masked) > 0 {
				node = masked[rng.Intn(len(masked))]
			}
			ends[i] = endRef{edge: i / 2, node: node}
		}
		ends[len(ends)-1].node = ends[0].node
		r := 1 + int32(radius)%5
		checkClusterEnds(t, fmt.Sprintf("n=%d edges=%d", n, g.NumEdges()), g, ends, r, mask)
	})
}
