package graph

import (
	"math/rand"
	"testing"

	"bfskel/internal/geom"
	"bfskel/internal/radio"
)

// overlayTestGraph builds a moderately sized random UDG for churn tests.
func overlayTestGraph(t *testing.T, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	return Build(pts, radio.UDG{R: 3.2}, seed)
}

// rebuildAlive constructs a fresh graph with the same alive adjacency as the
// overlayed graph (dead nodes isolated), the reference for kernel checks.
func rebuildAlive(g *Graph) *Graph {
	fresh := New(g.N())
	for v := 0; v < g.N(); v++ {
		if !g.Alive(int32(v)) {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				fresh.AddEdge(v, int(u))
			}
		}
	}
	return fresh.Freeze()
}

func TestOverlayRemoveReviveRoundTrip(t *testing.T) {
	g := overlayTestGraph(t, 7)
	n := g.N()
	wantEdges := g.NumEdges()
	baseAdj := make([][]int32, n)
	for v := 0; v < n; v++ {
		baseAdj[v] = append([]int32(nil), g.Neighbors(v)...)
	}
	// Degree reads the overlay's row ends, and HasEdge the shortened rows:
	// a degree taken from the base offsets would leave dead nodes with
	// their old degree (and boundaryByProduct would call them boundary).
	checkDegrees := func(stage string) {
		t.Helper()
		for v := 0; v < n; v++ {
			if d, l := g.Degree(v), len(g.Neighbors(v)); d != l {
				t.Fatalf("%s: node %d: Degree %d, %d neighbors", stage, v, d, l)
			}
			for _, u := range baseAdj[v] {
				want := g.Alive(int32(v)) && g.Alive(u)
				if g.HasEdge(v, int(u)) != want || g.HasEdge(int(u), v) != want {
					t.Fatalf("%s: HasEdge(%d, %d) = %v, want %v", stage, v, u, !want, want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(99))
	var batch []int32
	for _, v := range rng.Perm(n)[:64] {
		batch = append(batch, int32(v))
	}
	patched := g.RemoveNodes(batch)
	if len(patched) == 0 {
		t.Fatal("RemoveNodes reported no patched nodes")
	}
	if got := g.AliveCount(); got != n-64 {
		t.Fatalf("AliveCount = %d, want %d", got, n-64)
	}
	// Windows must equal the base rows filtered by liveness, stay sorted,
	// and dead nodes must be fully detached.
	edgeCount := 0
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		if !g.Alive(int32(v)) {
			if len(nbrs) != 0 {
				t.Fatalf("dead node %d keeps %d neighbors", v, len(nbrs))
			}
			continue
		}
		want := baseAdj[v][:0:0]
		for _, u := range baseAdj[v] {
			if g.Alive(u) {
				want = append(want, u)
			}
		}
		if len(nbrs) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", v, len(nbrs), len(want))
		}
		for i := range nbrs {
			if nbrs[i] != want[i] {
				t.Fatalf("node %d: neighbor[%d] = %d, want %d", v, i, nbrs[i], want[i])
			}
		}
		edgeCount += len(nbrs)
	}
	if got := g.NumEdges(); got != edgeCount/2 {
		t.Fatalf("NumEdges = %d, recount says %d", got, edgeCount/2)
	}
	checkDegrees("after removal")

	// Revive half, then everything: the graph must return to its base state.
	g.ReviveNodes(batch[:32])
	g.ReviveNodes(batch)
	if got := g.AliveCount(); got != n {
		t.Fatalf("AliveCount after revive = %d, want %d", got, n)
	}
	if got := g.NumEdges(); got != wantEdges {
		t.Fatalf("NumEdges after revive = %d, want %d", got, wantEdges)
	}
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		if len(nbrs) != len(baseAdj[v]) {
			t.Fatalf("node %d: %d neighbors after revive, want %d", v, len(nbrs), len(baseAdj[v]))
		}
		for i := range nbrs {
			if nbrs[i] != baseAdj[v][i] {
				t.Fatalf("node %d: neighbor[%d] = %d after revive, want %d", v, i, nbrs[i], baseAdj[v][i])
			}
		}
	}
	checkDegrees("after revival")
}

func TestOverlayKernelsMatchRebuiltGraph(t *testing.T) {
	g := overlayTestGraph(t, 11)
	n := g.N()
	rng := rand.New(rand.NewSource(5))
	var batch []int32
	for _, v := range rng.Perm(n)[:48] {
		batch = append(batch, int32(v))
	}
	g.RemoveNodes(batch)
	ref := rebuildAlive(g)

	// The batched MS-BFS kernel over the overlayed CSR must agree with the
	// walker kernel over a freshly built graph with the same alive edges.
	const k = 4
	var sources []int32
	for v := int32(0); v < int32(n); v += 3 {
		sources = append(sources, v)
	}
	got, want := make([]int32, n*k), make([]int32, n*k)
	g.BatchBallSizesInto(k, sources, got, nil, nil, nil)
	ref.BatchBallSizesInto(k, sources, want, nil, nil, nil)
	for _, src := range sources {
		for r := 0; r < k; r++ {
			if i := int(src)*k + r; got[i] != want[i] {
				t.Fatalf("ball size of %d at r=%d: overlay %d, rebuilt %d", src, r+1, got[i], want[i])
			}
		}
	}

	// Pruned batch: bound every node by its distance to a site set, then
	// compare visits against the rebuilt graph.
	sites := []int32{sources[0], sources[1], sources[2]}
	bound := make([]int32, n)
	for v := range bound {
		bound[v] = Unreachable
	}
	q := sites
	for _, s := range sites {
		bound[s] = 0
	}
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range g.Neighbors(int(u)) {
			if bound[v] == Unreachable {
				bound[v] = bound[u] + 1
				q = append(q, v)
			}
		}
	}
	wg, wr := NewWalker(g), NewWalker(ref)
	gotV := wg.PrunedBatch(sites, bound, 1, nil)
	wantV := wr.PrunedBatch(sites, bound, 1, nil)
	if len(gotV) != len(wantV) {
		t.Fatalf("pruned visits: overlay %d, rebuilt %d", len(gotV), len(wantV))
	}
	for i := range gotV {
		if gotV[i] != wantV[i] {
			t.Fatalf("pruned visit %d: overlay %+v, rebuilt %+v", i, gotV[i], wantV[i])
		}
	}
}
