package graph_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bfskel/internal/geom"
	"bfskel/internal/graph"
	"bfskel/internal/radio"
)

// pathGraph builds 0-1-2-...-n-1.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	g.SortAdjacency()
	return g
}

// cycleGraph builds a ring of n nodes.
func cycleGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	g.SortAdjacency()
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := pathGraph(4)
	if g.N() != 4 || g.NumEdges() != 3 {
		t.Fatalf("N=%d E=%d", g.N(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Errorf("degrees wrong")
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Errorf("HasEdge wrong")
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v", got)
	}
	if empty := graph.New(0); empty.AvgDegree() != 0 {
		t.Error("empty AvgDegree")
	}
}

func TestBFS(t *testing.T) {
	g := pathGraph(5)
	dist := g.BFS(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	// Disconnected node.
	g2 := graph.New(3)
	g2.AddEdge(0, 1)
	d := g2.BFS(0)
	if d[2] != graph.Unreachable {
		t.Errorf("unreachable dist = %d", d[2])
	}
}

func TestBFSPathsAndPathTo(t *testing.T) {
	g := cycleGraph(6)
	dist, parent := g.BFSPaths(0)
	if dist[3] != 3 {
		t.Errorf("dist[3] = %d", dist[3])
	}
	path := graph.PathTo(parent, 3)
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Errorf("path = %v", path)
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(int(path[i-1]), int(path[i])) {
			t.Errorf("path edge %v-%v missing", path[i-1], path[i])
		}
	}
	// Unreachable.
	g2 := graph.New(2)
	_, p2 := g2.BFSPaths(0)
	if got := graph.PathTo(p2, 1); got != nil {
		t.Errorf("unreachable path = %v", got)
	}
}

func TestBFSBlocked(t *testing.T) {
	g := pathGraph(5)
	blocked := make([]bool, 5)
	blocked[2] = true
	dist := g.BFSBlocked(0, blocked)
	if dist[1] != 1 {
		t.Errorf("dist[1] = %d", dist[1])
	}
	if dist[3] != graph.Unreachable || dist[4] != graph.Unreachable {
		t.Errorf("blocked BFS leaked past node 2: %v", dist)
	}
}

func TestKHop(t *testing.T) {
	g := pathGraph(10)
	if got := g.KHopCount(0, 3); got != 3 {
		t.Errorf("KHopCount(0,3) = %d", got)
	}
	if got := g.KHopCount(5, 2); got != 4 {
		t.Errorf("KHopCount(5,2) = %d", got)
	}
	nbrs := g.KHopNeighbors(0, 2)
	if len(nbrs) != 2 {
		t.Errorf("KHopNeighbors = %v", nbrs)
	}
	counts := g.AllKHopCounts(2)
	for v, want := range []int{2, 3, 4, 4, 4, 4, 4, 4, 3, 2} {
		if counts[v] != want {
			t.Errorf("AllKHopCounts[%d] = %d, want %d", v, counts[v], want)
		}
	}
}

// TestAllBallSizesCumulative: ball sizes are cumulative and match
// KHopCount at every radius.
func TestAllBallSizesCumulative(t *testing.T) {
	g := cycleGraph(12)
	balls := g.AllBallSizes(4)
	for v := 0; v < g.N(); v++ {
		prev := 0
		for r := 1; r <= 4; r++ {
			if balls[v][r-1] < prev {
				t.Fatalf("ball sizes not cumulative at %d r=%d", v, r)
			}
			prev = balls[v][r-1]
			if want := g.KHopCount(v, r); balls[v][r-1] != want {
				t.Fatalf("ball[%d][%d] = %d, want %d", v, r, balls[v][r-1], want)
			}
		}
	}
}

func TestComponents(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	label, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if label[0] != label[2] || label[3] != label[4] || label[0] == label[3] || label[5] == label[0] {
		t.Errorf("labels = %v", label)
	}
	lc := g.LargestComponent()
	if len(lc) != 3 || lc[0] != 0 {
		t.Errorf("largest = %v", lc)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if !pathGraph(4).IsConnected() {
		t.Error("path graph reported disconnected")
	}
	if !graph.New(0).IsConnected() {
		t.Error("empty graph should count as connected")
	}
}

func TestSubgraph(t *testing.T) {
	g := cycleGraph(6)
	sub, orig := g.Subgraph([]int32{0, 1, 2, 5})
	if sub.N() != 4 {
		t.Fatalf("sub N = %d", sub.N())
	}
	// Edges kept: 0-1, 1-2, 5-0 => 3 edges.
	if sub.NumEdges() != 3 {
		t.Errorf("sub E = %d", sub.NumEdges())
	}
	if orig[3] != 5 {
		t.Errorf("orig mapping = %v", orig)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := pathGraph(7)
	if got := g.Eccentricity(3); got != 3 {
		t.Errorf("Eccentricity(3) = %d", got)
	}
	if got := g.DiameterLowerBound(3); got != 6 {
		t.Errorf("DiameterLowerBound = %d", got)
	}
}

// TestBuildMatchesBruteForce: the spatial-hash builder produces exactly the
// brute-force UDG edge set.
func TestBuildMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(60)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*30, rng.Float64()*30)
		}
		const r = 4.0
		g := graph.Build(pts, radio.UDG{R: r}, seed)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := pts[i].Dist(pts[j]) <= r
				if g.HasEdge(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBuildDeterministic: probabilistic models give identical graphs for
// identical seeds.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	m := radio.QUDG{R: 4, Alpha: 0.4, P: 0.3}
	a := graph.Build(pts, m, 9)
	b := graph.Build(pts, m, 9)
	c := graph.Build(pts, m, 10)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different edge count")
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("node %d adjacency differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d adjacency differs at %d", v, i)
			}
		}
	}
	if a.NumEdges() == c.NumEdges() {
		// Different seed *may* coincide in edge count, but full equality
		// would be suspicious; check some node differs.
		same := true
		for v := 0; v < a.N() && same; v++ {
			na, nc := a.Neighbors(v), c.Neighbors(v)
			if len(na) != len(nc) {
				same = false
			}
		}
		if same {
			t.Log("warning: different seeds produced same degree sequence (possible but unlikely)")
		}
	}
}

// TestQUDGEdgeFractions: in the gray zone, roughly fraction P of pairs link.
func TestQUDGEdgeFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 800)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	m := radio.QUDG{R: 4, Alpha: 0.5, P: 0.3}
	g := graph.Build(pts, m, 3)
	var sure, gray, grayLinked int
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			switch {
			case d < 2:
				sure++
				if !g.HasEdge(i, j) {
					t.Fatalf("missing sure link %d-%d", i, j)
				}
			case d <= 6:
				gray++
				if g.HasEdge(i, j) {
					grayLinked++
				}
			default:
				if g.HasEdge(i, j) {
					t.Fatalf("link beyond (1+alpha)R: %d-%d at %v", i, j, d)
				}
			}
		}
	}
	frac := float64(grayLinked) / float64(gray)
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("gray-zone link fraction = %.3f, want ~0.3 (%d/%d)", frac, grayLinked, gray)
	}
	_ = sure
}

func TestWalker(t *testing.T) {
	g := pathGraph(8)
	w := graph.NewWalker(g)
	count := func(src, k int) int {
		n := 0
		w.Walk(src, k, func(_, _ int32) { n++ })
		return n
	}
	if got := count(0, 3); got != 3 {
		t.Errorf("Count = %d", got)
	}
	// Repeated use must not leak state.
	if got := count(7, 2); got != 2 {
		t.Errorf("second Count = %d", got)
	}
	visited := 0
	w.Walk(4, 2, func(v, d int32) {
		visited++
		if d < 1 || d > 2 {
			t.Errorf("walk dist %d out of range", d)
		}
	})
	if visited != 4 {
		t.Errorf("Walk visited %d", visited)
	}
}
