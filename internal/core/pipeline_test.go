package core

import (
	"slices"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
)

func TestExtractErrors(t *testing.T) {
	if _, err := Extract(graph.New(0).Freeze(), DefaultParams()); err != ErrEmptyGraph {
		t.Errorf("empty graph err = %v", err)
	}
	bad := DefaultParams()
	bad.K = 0
	if _, err := Extract(graph.New(3).Freeze(), bad); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestVoronoiInvariants checks Phase 2 against the paper's guarantees on a
// real network: every record respects the Alpha slack, reverse paths are
// valid shortest paths, and — Theorem 4 — every Voronoi cell is connected.
func TestVoronoiInvariants(t *testing.T) {
	net := nettest.Grid("smile", 1500, 7, 2)
	g := net.Graph
	p := DefaultParams()
	x := NewExtractor(g)
	_, _, _, sites, _, _ := x.identify(p, nil)
	if len(sites) < 2 {
		t.Fatalf("only %d sites", len(sites))
	}
	cellOf, distToSite, records := x.voronoi(sites, p.Alpha, nil)

	// Slack bound and reverse-path validity.
	for v := 0; v < g.N(); v++ {
		if distToSite[v] == graph.Unreachable {
			t.Fatalf("node %d unreachable from every site", v)
		}
		if len(records[v]) == 0 {
			t.Fatalf("node %d has no records", v)
		}
		for _, r := range records[v] {
			if r.D > distToSite[v]+p.Alpha {
				t.Fatalf("node %d records site %d at %d > dmin %d + alpha", v, r.Site, r.D, distToSite[v])
			}
			path := pathToSite(records, int32(v), r.Site)
			if int32(len(path)-1) != r.D {
				t.Fatalf("node %d: path length %d != recorded D %d", v, len(path)-1, r.D)
			}
			for i := 1; i < len(path); i++ {
				if !g.HasEdge(int(path[i-1]), int(path[i])) {
					t.Fatalf("node %d: reverse path uses non-edge %d-%d", v, path[i-1], path[i])
				}
			}
		}
	}

	// Theorem 4: the sub-region of each site is connected.
	for _, s := range sites {
		var members []int32
		for v := 0; v < g.N(); v++ {
			if cellOf[v] == s {
				members = append(members, int32(v))
			}
		}
		if len(members) == 0 {
			t.Fatalf("site %d owns no cell", s)
		}
		sub, _ := g.Subgraph(members)
		if !sub.IsConnected() {
			t.Fatalf("Voronoi cell of site %d is disconnected (%d members)", s, len(members))
		}
	}

	// The cell assignment matches the minimum distance (ties to the lowest
	// site ID).
	siteDist := make(map[int32][]int32, len(sites))
	for _, s := range sites {
		siteDist[s] = g.BFS(int(s))
	}
	for v := 0; v < g.N(); v++ {
		best, bestSite := int32(1<<30), int32(-1)
		for _, s := range sites {
			if d := siteDist[s][v]; d != graph.Unreachable && (d < best || (d == best && s < bestSite)) {
				best, bestSite = d, s
			}
		}
		if distToSite[v] != best || cellOf[v] != bestSite {
			t.Fatalf("node %d: cell %d@%d, want %d@%d", v, cellOf[v], distToSite[v], bestSite, best)
		}
	}
}

// TestIdentifyIndexDefinition checks Defs. 3 and 4 against direct
// recomputation on a small network.
func TestIdentifyIndexDefinition(t *testing.T) {
	net := nettest.Grid("star", 500, 7, 1)
	g := net.Graph
	p := DefaultParams()
	khop, cent, index, sites, kEff, scopeEff := NewExtractor(g).identify(p, nil)
	if kEff != p.K {
		t.Fatalf("saturation guard engaged on a normal network: kEff=%d", kEff)
	}
	if scopeEff > p.Scope() {
		t.Fatalf("scopeEff %d exceeds configured scope", scopeEff)
	}
	for v := 0; v < g.N(); v++ {
		if want := g.KHopCount(v, p.K); khop[v] != want {
			t.Fatalf("khop[%d] = %d, want %d", v, khop[v], want)
		}
		sum, count := khop[v], 1
		for _, u := range g.KHopNeighbors(v, p.L) {
			sum += khop[u]
			count++
		}
		want := float64(sum) / float64(count)
		if cent[v] != want {
			t.Fatalf("cent[%d] = %v, want %v", v, cent[v], want)
		}
		if index[v] != (float64(khop[v])+cent[v])/2 {
			t.Fatalf("index[%d] broken", v)
		}
	}
	// Def. 5: sites are exactly the local maxima under the tie-break.
	isSite := make(map[int32]bool, len(sites))
	for _, s := range sites {
		isSite[s] = true
	}
	for v := 0; v < g.N(); v++ {
		maximal := true
		for _, u := range g.KHopNeighbors(v, scopeEff) {
			if index[u] > index[v] || (index[u] == index[v] && u < int32(v)) {
				maximal = false
				break
			}
		}
		if maximal != isSite[int32(v)] {
			t.Fatalf("node %d: local max = %v, site = %v", v, maximal, isSite[int32(v)])
		}
	}
}

// TestExtractDeterministic: the same graph yields the identical skeleton.
func TestExtractDeterministic(t *testing.T) {
	net := nettest.Grid("twoholes", 1200, 7, 4)
	a, err := Extract(net.Graph, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(net.Graph, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	na, nb := a.Skeleton.Nodes(), b.Skeleton.Nodes()
	if len(na) != len(nb) {
		t.Fatalf("non-deterministic skeleton size: %d vs %d", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("non-deterministic skeleton at %d", i)
		}
	}
}

// TestHomotopyAcrossShapes: the headline invariant on a fast subset of the
// paper's fields (small networks for test speed).
func TestHomotopyAcrossShapes(t *testing.T) {
	tests := []struct {
		shape string
		n     int
		deg   float64
	}{
		{"window", 2592, 6},
		{"smile", 2924, 6.35}, // paper size: the eye holes need enough cells around them
		{"twoholes", 2000, 7},
		{"onehole", 1600, 7},
		{"star", 1000, 7},
		{"spiral", 1800, 9},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.shape, func(t *testing.T) {
			net := nettest.Grid(tt.shape, tt.n, tt.deg, 1)
			res, err := Extract(net.Graph, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Skeleton.CycleRank(), net.Shape.Holes(); got != want {
				t.Errorf("cycle rank = %d, want %d holes", got, want)
			}
			if comps := res.Skeleton.Components(); comps != 1 {
				t.Errorf("skeleton components = %d", comps)
			}
			if res.Skeleton.NumNodes() == 0 {
				t.Error("empty skeleton")
			}
		})
	}
}

// TestSegmentAndVoronoiNodeClassification: the special-node lists agree
// with the record counts.
func TestSegmentAndVoronoiNodeClassification(t *testing.T) {
	net := nettest.Grid("onehole", 1000, 7, 1)
	res, err := Extract(net.Graph, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	seg := make(map[int32]bool, len(res.SegmentNodes))
	for _, v := range res.SegmentNodes {
		seg[v] = true
	}
	vor := make(map[int32]bool, len(res.VoronoiNodes))
	for _, v := range res.VoronoiNodes {
		vor[v] = true
	}
	for v := int32(0); int(v) < net.Graph.N(); v++ {
		if res.IsSegmentNode(v) != seg[v] {
			t.Fatalf("segment classification mismatch at %d", v)
		}
		if res.IsVoronoiNode(v) != vor[v] {
			t.Fatalf("voronoi classification mismatch at %d", v)
		}
		if vor[v] && !seg[v] {
			t.Fatalf("voronoi node %d not a segment node", v)
		}
	}
}

// TestSkeletonNodesAreMedial: skeleton nodes average a clearly larger
// geometric clearance than the network (the "medially placed" claim).
func TestSkeletonNodesAreMedial(t *testing.T) {
	net := nettest.Grid("cactus", 1500, 7, 1)
	res, err := Extract(net.Graph, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var all, skel float64
	for v, p := range net.Points {
		d := net.Shape.Poly.BoundaryDist(p)
		all += d
		if res.Skeleton.Contains(int32(v)) {
			skel += d
		}
	}
	all /= float64(len(net.Points))
	skel /= float64(res.Skeleton.NumNodes())
	if skel < 1.3*all {
		t.Errorf("skeleton clearance %.2f not clearly above network mean %.2f", skel, all)
	}
}

// TestMinSiteGuard: on a dense clique-like graph the guard still elects a
// minimal site population instead of collapsing to one.
func TestMinSiteGuard(t *testing.T) {
	net := nettest.Grid("star", 900, 18, 1)
	khop, _, _, sites, kEff, scopeEff := NewExtractor(net.Graph).identify(DefaultParams(), nil)
	if len(khop) != net.Graph.N() {
		t.Fatal("khop size")
	}
	if len(sites) < 4 {
		t.Errorf("guard failed: %d sites (kEff=%d scopeEff=%d)", len(sites), kEff, scopeEff)
	}
}

// TestDropRedundantParallelsGroups checks the parallel-edge filter against
// pairwise BFS on one group of 150 edges (three 64-connector floods) and
// one of 40: scanning each group widest band first, an edge is deleted iff
// its connector lies within 2*Alpha+3 hops of an already kept one.
func TestDropRedundantParallelsGroups(t *testing.T) {
	g := nettest.Grid("window", 2500, 7, 1).Graph
	p := DefaultParams()
	x := NewExtractor(g)
	w := x.newRefiner(p, nil, nil, nil)
	for i := 0; i < 190; i++ {
		a, b := int32(0), int32(1)
		if i >= 150 {
			a, b = 2, 3
		}
		w.edges = append(w.edges, wEdge{a: a, b: b, connector: int32(i * 37 % g.N()), segs: i % 7})
	}
	w.dropRedundantParallels()

	nearLimit := 2*p.Alpha + 3
	for _, group := range [][2]int{{0, 150}, {150, 190}} {
		idxs := make([]int, 0, group[1]-group[0])
		for i := group[0]; i < group[1]; i++ {
			idxs = append(idxs, i)
		}
		slices.SortFunc(idxs, func(a, b int) int {
			if w.edges[a].segs != w.edges[b].segs {
				return w.edges[b].segs - w.edges[a].segs
			}
			return int(w.edges[a].connector - w.edges[b].connector)
		})
		var kept []int32
		deleted := 0
		for _, ei := range idxs {
			dist := g.BFS(int(w.edges[ei].connector))
			near := false
			for _, k := range kept {
				if d := dist[k]; d != graph.Unreachable && d <= nearLimit {
					near = true
				}
			}
			if !near {
				kept = append(kept, w.edges[ei].connector)
			} else {
				deleted++
			}
			if w.edges[ei].deleted != near {
				t.Fatalf("edge %d (connector %d): deleted = %v, want %v", ei, w.edges[ei].connector, w.edges[ei].deleted, near)
			}
		}
		if deleted == 0 || len(kept) < 2 {
			t.Fatalf("group %v: %d deleted, %d kept; the test needs both", group, deleted, len(kept))
		}
	}
}
