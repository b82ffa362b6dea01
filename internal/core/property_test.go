package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfskel/internal/geom"
	"bfskel/internal/graph"
	"bfskel/internal/radio"
)

// randomNetwork builds a random geometric graph (largest component).
func randomNetwork(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	g := graph.Build(pts, radio.UDG{R: 3.4}, seed)
	sub, _ := g.Subgraph(g.LargestComponent())
	return sub
}

// TestExtractionInvariants is a property check over random geometric
// graphs: whatever the topology, the pipeline's structural invariants must
// hold — skeleton edges are graph edges, skeleton nodes were deployed,
// cells point at real sites with consistent distances, and every coarse
// edge runs site-to-site through a connector that recorded both.
func TestExtractionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomNetwork(seed, 250+int(uint64(seed)%250))
		res, err := Extract(g, DefaultParams())
		if err == ErrNoSites {
			return true // degenerate but legal outcome on tiny cliques
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}

		siteSet := make(map[int32]bool, len(res.Sites))
		for _, s := range res.Sites {
			siteSet[s] = true
		}
		// Skeleton structure is embedded in the graph.
		for _, v := range res.Skeleton.Nodes() {
			if int(v) >= g.N() {
				t.Logf("seed %d: skeleton node %d out of range", seed, v)
				return false
			}
			for _, u := range res.Skeleton.Neighbors(v) {
				if !g.HasEdge(int(v), int(u)) {
					t.Logf("seed %d: skeleton edge %d-%d not a graph edge", seed, v, u)
					return false
				}
			}
		}
		// Cells: every node points at a real site at its recorded distance.
		for v := 0; v < g.N(); v++ {
			c := res.CellOf[v]
			if c < 0 {
				t.Logf("seed %d: node %d unassigned", seed, v)
				return false
			}
			if !siteSet[c] {
				t.Logf("seed %d: cell of %d is non-site %d", seed, v, c)
				return false
			}
			if res.DistToSite[v] < 0 {
				return false
			}
		}
		// Coarse edges: endpoints are sites, the connector recorded both,
		// and the path runs endpoint to endpoint over graph edges.
		for _, e := range res.Edges {
			if !siteSet[e.Pair.A] || !siteSet[e.Pair.B] {
				t.Logf("seed %d: edge endpoints not sites", seed)
				return false
			}
			if _, ok := recordFor(res.Records, e.Connector, e.Pair.A); !ok {
				return false
			}
			if _, ok := recordFor(res.Records, e.Connector, e.Pair.B); !ok {
				return false
			}
			if e.Path[0] != e.Pair.A || e.Path[len(e.Path)-1] != e.Pair.B {
				t.Logf("seed %d: path endpoints wrong", seed)
				return false
			}
			for i := 1; i < len(e.Path); i++ {
				if !g.HasEdge(int(e.Path[i-1]), int(e.Path[i])) {
					t.Logf("seed %d: path uses non-edge", seed)
					return false
				}
			}
		}
		// Loops are classified, never unknown.
		for _, l := range res.Loops {
			if l.Kind != LoopGenuine && l.Kind != LoopFake {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCompleteFromVoronoiMatchesExtract: feeding Extract's own phase 1-2
// artifacts through CompleteFromVoronoi reproduces the identical skeleton.
func TestCompleteFromVoronoiMatchesExtract(t *testing.T) {
	g := randomNetwork(7, 400)
	want, err := Extract(g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CompleteFromVoronoi(g, want.Params, want.KHopSize, want.Index, want.Sites, want.Records)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := want.Skeleton.Nodes(), got.Skeleton.Nodes()
	if len(na) != len(nb) {
		t.Fatalf("skeleton sizes differ: %d vs %d", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("skeleton differs at %d", i)
		}
	}
	for v := range want.CellOf {
		if want.CellOf[v] != got.CellOf[v] || want.DistToSite[v] != got.DistToSite[v] {
			t.Fatalf("cell assignment differs at %d", v)
		}
	}
}

func TestCompleteFromVoronoiValidation(t *testing.T) {
	g := randomNetwork(1, 100)
	p := DefaultParams()
	if _, err := CompleteFromVoronoi(graph.New(0).Freeze(), p, nil, nil, nil, nil); err != ErrEmptyGraph {
		t.Errorf("empty graph err = %v", err)
	}
	if _, err := CompleteFromVoronoi(g, p, make([]int, g.N()), make([]float64, g.N()), nil, make([][]SiteDist, g.N())); err != ErrNoSites {
		t.Errorf("no sites err = %v", err)
	}
	if _, err := CompleteFromVoronoi(g, p, make([]int, 3), make([]float64, g.N()), []int32{0}, make([][]SiteDist, g.N())); err == nil {
		t.Error("size mismatch accepted")
	}
	bad := p
	bad.K = -1
	if _, err := CompleteFromVoronoi(g, bad, make([]int, g.N()), make([]float64, g.N()), []int32{0}, make([][]SiteDist, g.N())); err == nil {
		t.Error("invalid params accepted")
	}
}
