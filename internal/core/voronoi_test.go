package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bfskel/internal/geom"
	"bfskel/internal/graph"
	"bfskel/internal/nettest"
	"bfskel/internal/radio"
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

// checkVoronoiRecords compares VoronoiRecords against per-source BFS: every
// node's distance is its nearest source's, its records are exactly the
// sources within slack of that distance, in source order, at their true
// distances, and each parent is the lowest-ID neighbor one hop closer to
// the record's source (a source's own record is its own parent).
func checkVoronoiRecords(t *testing.T, g *graph.Graph, sources []int32, slack int32) {
	t.Helper()
	dist, records := VoronoiRecords(g, sources, slack)
	trueDist := make([][]int32, len(sources))
	for i, s := range sources {
		trueDist[i] = g.BFS(int(s))
	}
	for v := 0; v < g.N(); v++ {
		want := graph.Unreachable
		for i := range sources {
			if d := trueDist[i][v]; d != graph.Unreachable && (want == graph.Unreachable || d < want) {
				want = d
			}
		}
		if dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want)
		}
		var wantRecs []SiteDist
		for i, s := range sources {
			d := trueDist[i][v]
			if want == graph.Unreachable || d == graph.Unreachable || d > want+slack {
				continue
			}
			parent := s
			if d > 0 {
				parent = -1
				for _, u := range g.Neighbors(v) {
					if trueDist[i][u] == d-1 && (parent == -1 || u < parent) {
						parent = u
					}
				}
			}
			wantRecs = append(wantRecs, SiteDist{Site: s, D: d, Parent: parent})
		}
		if !slices.Equal(records[v], wantRecs) {
			t.Fatalf("node %d: records %v, want %v", v, records[v], wantRecs)
		}
	}
}

// TestVoronoiRecordsBruteForce checks the exported flood against the BFS
// oracle on a random field (with the Z-curve batch order), at three slacks
// and with enough sources to fill more than one 64-source batch.
func TestVoronoiRecordsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 250)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*30, rng.Float64()*30)
	}
	g := graph.Build(pts, radio.UDG{R: 4}, 1)
	var many []int32
	for v := 0; v < g.N(); v += 3 {
		many = append(many, int32(v))
	}
	for _, sources := range [][]int32{{3, 77, 150, 200}, many} {
		for slack := int32(0); slack <= 2; slack++ {
			checkVoronoiRecords(t, g, sources, slack)
		}
	}
}

// TestVoronoiRecordsEdgeCases: no sources leave every node unreached and
// unrecorded, and a node in a source-free component stays so.
func TestVoronoiRecordsEdgeCases(t *testing.T) {
	b := graph.New(3)
	b.AddEdge(0, 1)
	g := b.Freeze()
	dist, records := VoronoiRecords(g, nil, 1)
	for v := range dist {
		if dist[v] != graph.Unreachable || len(records[v]) != 0 {
			t.Fatalf("empty sources produced dist %d, records %v at %d", dist[v], records[v], v)
		}
	}
	dist, records = VoronoiRecords(g, []int32{0}, 1)
	if dist[1] != 1 || len(records[1]) != 1 {
		t.Errorf("neighbor of the source: dist %d, records %v", dist[1], records[1])
	}
	if dist[2] != graph.Unreachable || len(records[2]) != 0 {
		t.Errorf("isolated node: dist %d, records %v", dist[2], records[2])
	}
}

// FuzzVoronoiRecords checks VoronoiRecords against the BFS oracle on small
// random fields: up to 160 points from data's byte pairs on a 32x32 square,
// a unit-disk radius of 2..5, each node a source with probability
// (density%100+1)/100, and slack 0..2.
func FuzzVoronoiRecords(f *testing.F) {
	f.Add([]byte("almost equidistant sources"), uint8(1), uint8(30), uint8(1), int64(1))
	f.Add([]byte{0, 0, 0, 31, 31, 0, 31, 31, 16, 16, 8, 8, 24, 24}, uint8(3), uint8(99), uint8(2), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, radius, density, slack uint8, seed int64) {
		pts := make([]geom.Point, 0, 160)
		for i := 0; i+1 < len(data) && len(pts) < cap(pts); i += 2 {
			pts = append(pts, geom.Pt(float64(data[i]%32), float64(data[i+1]%32)))
		}
		g := graph.Build(pts, radio.UDG{R: 2 + float64(radius%4)}, seed)
		rng := rand.New(rand.NewSource(seed))
		var sources []int32
		for v := 0; v < g.N(); v++ {
			if rng.Intn(100) <= int(density%100) {
				sources = append(sources, int32(v))
			}
		}
		checkVoronoiRecords(t, g, sources, int32(slack%3))
	})
}
