package core

import (
	"runtime"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
)

// voronoiDminSerial is the FIFO multi-source dmin pass, kept as the oracle
// for the level-synchronous production pass: sites are enqueued in
// increasing ID order, so the first discoverer of any node — and hence its
// cell — is its lowest-ID nearest site.
func voronoiDminSerial(g *graph.Graph, sites []int32, cellOf, distToSite []int32) {
	queue := make([]int32, 0, g.N())
	for _, s := range sites {
		distToSite[s] = 0
		cellOf[s] = s
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := distToSite[u]
		for _, v := range g.Neighbors(int(u)) {
			if distToSite[v] == graph.Unreachable {
				distToSite[v] = du + 1
				cellOf[v] = cellOf[u]
				queue = append(queue, v)
			}
		}
	}
}

// dminArrays returns fresh cellOf/distToSite arrays in the state voronoi
// hands to the dmin pass.
func dminArrays(n int) (cellOf, distToSite []int32) {
	cellOf = make([]int32, n)
	distToSite = make([]int32, n)
	for i := range cellOf {
		cellOf[i] = -1
		distToSite[i] = graph.Unreachable
	}
	return cellOf, distToSite
}

// TestVoronoiDminMatchesFIFO: the level-synchronous dmin pass gives the
// FIFO pass's distances and cells at every worker count, on clean fields
// and on fields with tombstoned nodes.
func TestVoronoiDminMatchesFIFO(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, shape := range []string{"window", "twoholes", "spiral"} {
		for _, every := range []int{0, 9} {
			g := nettest.Grid(shape, 2500, 7, 1).Graph
			n := g.N()
			if every > 0 {
				var dead []int32
				for v := 0; v < n; v += every {
					dead = append(dead, int32(v))
				}
				g.RemoveNodes(dead)
			}
			x := NewExtractor(g)
			_, _, _, sites, _, _ := x.identify(DefaultParams(), nil)
			if len(sites) == 0 {
				t.Fatalf("%s/every=%d: no sites", shape, every)
			}
			wantCell, wantDist := dminArrays(n)
			voronoiDminSerial(g, sites, wantCell, wantDist)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				cell, dist := dminArrays(n)
				x.fld.ensure(n)
				x.voronoiDmin(sites, cell, dist)
				for v := 0; v < n; v++ {
					if cell[v] != wantCell[v] || dist[v] != wantDist[v] {
						t.Fatalf("%s/every=%d/procs=%d: node %d has (cell %d, dist %d), FIFO gives (%d, %d)",
							shape, every, procs, v, cell[v], dist[v], wantCell[v], wantDist[v])
					}
				}
			}
		}
	}
}
