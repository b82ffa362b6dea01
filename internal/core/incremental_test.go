package core

import (
	"math"
	"runtime"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/nettest"
	"bfskel/internal/radio"
	"bfskel/internal/shapes"
)

// churnPlan deterministically picks the next batch of currently-alive nodes
// to remove (a seeded LCG keeps the suite reproducible without math/rand).
type churnPlan struct {
	state uint64
}

func (c *churnPlan) next(n int) int {
	c.state = c.state*6364136223846793005 + 1442695040888963407
	return int((c.state >> 33) % uint64(n))
}

// pickAlive draws k distinct alive nodes.
func (c *churnPlan) pickAlive(g *graph.Graph, k int) []int32 {
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for guard := 0; len(out) < k && guard < 100*k+1000; guard++ {
		v := int32(c.next(g.N()))
		if g.Alive(v) && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// pickDead draws up to k distinct dead nodes.
func (c *churnPlan) pickDead(g *graph.Graph, k int) []int32 {
	var dead []int32
	for v := 0; v < g.N(); v++ {
		if !g.Alive(int32(v)) {
			dead = append(dead, int32(v))
		}
	}
	if len(dead) <= k {
		return dead
	}
	out := make([]int32, 0, k)
	seen := make(map[int32]bool, k)
	for guard := 0; len(out) < k && guard < 100*k+1000; guard++ {
		v := dead[c.next(len(dead))]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// requireIncrementalEquivalence steps the incremental extractor through the
// given churn batches and, after every step, asserts the patched Result is
// bit-identical to a from-scratch extraction on the same mutated graph.
func requireIncrementalEquivalence(t *testing.T, name string, g *graph.Graph, p Params, batchSizes []int, seed uint64) {
	t.Helper()
	ix, err := NewIncrementalExtractor(g, p)
	if err != nil {
		t.Fatalf("%s: NewIncrementalExtractor: %v", name, err)
	}
	plan := &churnPlan{state: seed}
	for step, size := range batchSizes {
		var remove, revive []int32
		if step%3 == 2 {
			// Every third batch revives what it can instead of removing.
			revive = plan.pickDead(g, size)
		} else {
			remove = plan.pickAlive(g, size)
		}
		got, err := ix.Update(remove, revive)
		if err != nil {
			t.Fatalf("%s step %d: Update: %v", name, step, err)
		}
		want, err := NewExtractor(g).Extract(p)
		if err != nil {
			t.Fatalf("%s step %d: reference extract: %v", name, step, err)
		}
		requireEqualResults(t, nameStep(name, step, ix), got, want)
	}
}

func nameStep(name string, step int, ix *IncrementalExtractor) string {
	u := ix.LastUpdate()
	if u.Fallback {
		return name + "/step" + itoa(step) + "(fallback:" + u.FallbackReason + ")"
	}
	return name + "/step" + itoa(step)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestIncrementalSmoke: a quick single-shape pass — the full matrix lives in
// TestIncrementalEquivalenceShapes below.
func TestIncrementalSmoke(t *testing.T) {
	g := nettest.Grid("onehole", 700, 6.5, 3).Graph
	requireIncrementalEquivalence(t, "onehole", g, DefaultParams(),
		[]int{1, 1, 2, 8, 8, 8, 1}, 42)
}

// TestIncrementalEquivalenceShapes: the property matrix — every registered
// shape under both link models, stepping churn batches of 1, 8 and 64
// removals (with revival batches interleaved), each step checked
// bit-identical against a from-scratch extraction on the mutated graph.
func TestIncrementalEquivalenceShapes(t *testing.T) {
	names := shapes.Names()
	if testing.Short() {
		names = []string{"window", "onehole", "spiral"}
	}
	const n = 500
	for _, name := range names {
		shape := shapes.MustByName(name)
		r := math.Sqrt(6.5 * shape.Poly.Area() / (math.Pi * n))
		nets := map[string]*graph.Graph{
			"udg":  nettest.Grid(name, n, 6.5, 1).Graph,
			"qudg": nettest.WithModel(name, n, radio.QUDG{R: r, Alpha: 0.4, P: 0.3}, 1).Graph,
		}
		for model, g := range nets {
			p := DefaultParams()
			requireIncrementalEquivalence(t, name+"/"+model, g, p,
				[]int{1, 1, 8, 8, 64, 64}, 7)
		}
	}
}

// TestIncrementalSmallBatchesStayIncremental: single-node churn must take
// the repair path, not the fallback — the whole point of the subsystem.
func TestIncrementalSmallBatchesStayIncremental(t *testing.T) {
	g := nettest.Grid("onehole", 700, 6.5, 3).Graph
	ix, err := NewIncrementalExtractor(g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	plan := &churnPlan{state: 42}
	for step := 0; step < 3; step++ {
		if _, err := ix.Update(plan.pickAlive(g, 1), nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		u := ix.LastUpdate()
		if u.Fallback {
			t.Fatalf("step %d: single-node churn fell back (%s)", step, u.FallbackReason)
		}
		if u.DirtyNodes == 0 || u.Attempts == 0 || u.RepairedCells == 0 {
			t.Fatalf("step %d: repair stats empty: %+v", step, u)
		}
		if u.DirtyFraction > 0.2 {
			t.Fatalf("step %d: single-node churn dirtied %.0f%% of the field", step, 100*u.DirtyFraction)
		}
	}
}

// TestIncrementalFailRestoreStream: the steady-state stream shape of the
// churn benchmarks at a size where repairs span dozens of cells and need
// several fixpoint attempts — each step fails ten fresh nodes and restores
// the previous ten on a ~10^4-node field. Every step must stay on the repair
// path and match a from-scratch extraction bit for bit, and the stream must
// exercise the multi-attempt fixpoint at least once.
func TestIncrementalFailRestoreStream(t *testing.T) {
	g := nettest.Grid("window", 10_000, 7, 1).Graph
	p := DefaultParams()
	ix, err := NewIncrementalExtractor(g, p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &churnPlan{state: 1}
	var prev []int32
	maxAttempts := 0
	for step := 0; step < 8; step++ {
		batch := plan.pickAlive(g, 10)
		got, err := ix.Update(batch, prev)
		if err != nil {
			t.Fatalf("step %d: Update: %v", step, err)
		}
		prev = batch
		u := ix.LastUpdate()
		if u.Fallback {
			t.Fatalf("step %d: fell back (%s)", step, u.FallbackReason)
		}
		maxAttempts = max(maxAttempts, u.Attempts)
		want, err := NewExtractor(g).Extract(p)
		if err != nil {
			t.Fatalf("step %d: reference extract: %v", step, err)
		}
		requireEqualResults(t, nameStep("window-10k", step, ix), got, want)
	}
	if maxAttempts < 2 {
		t.Fatalf("no step needed more than one repair attempt (max %d)", maxAttempts)
	}
}

// TestIncrementalFallbackTrigger: removing a third of the network in one
// batch must exceed DirtyFallback and trigger the full-extraction fallback —
// and the result must still be bit-identical to the reference.
func TestIncrementalFallbackTrigger(t *testing.T) {
	g := nettest.Grid("window", 600, 6.5, 5).Graph
	p := DefaultParams()
	ix, err := NewIncrementalExtractor(g, p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &churnPlan{state: 99}
	remove := plan.pickAlive(g, g.N()/3)
	got, err := ix.Update(remove, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u := ix.LastUpdate(); !u.Fallback {
		t.Fatalf("mass removal did not fall back: %+v", u)
	}
	want, err := NewExtractor(g).Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "fallback", got, want)
	// Reviving everything must also land on a correct result.
	got, err = ix.Update(nil, remove)
	if err != nil {
		t.Fatal(err)
	}
	want, err = NewExtractor(g).Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "revive-all", got, want)
}

// TestIncrementalRepeatedDeterminism: the same seed and churn schedule yield
// the same Result sequence, run to run and across worker counts.
func TestIncrementalRepeatedDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runSequence := func(procs int) []*Result {
		runtime.GOMAXPROCS(procs)
		g := nettest.Grid("twoholes", 700, 6.5, 9).Graph
		ix, err := NewIncrementalExtractor(g, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		plan := &churnPlan{state: 5}
		var out []*Result
		for step, size := range []int{1, 4, 4, 8, 2} {
			var remove, revive []int32
			if step%3 == 2 {
				revive = plan.pickDead(g, size)
			} else {
				remove = plan.pickAlive(g, size)
			}
			res, err := ix.Update(remove, revive)
			if err != nil {
				t.Fatalf("procs=%d step %d: %v", procs, step, err)
			}
			out = append(out, res)
		}
		return out
	}
	a := runSequence(1)
	b := runSequence(8)
	c := runSequence(1)
	for i := range a {
		requireEqualResults(t, "procs1-vs-8/step"+itoa(i), a[i], b[i])
		requireEqualResults(t, "rerun/step"+itoa(i), a[i], c[i])
	}
}

// TestIncrementalResultImmutability: a Result returned by Update must not be
// affected by later updates (clean record rows are shared, but never
// mutated).
func TestIncrementalResultImmutability(t *testing.T) {
	g := nettest.Grid("window", 500, 6.5, 11).Graph
	p := DefaultParams()
	ix, err := NewIncrementalExtractor(g, p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &churnPlan{state: 3}
	first, err := ix.Update(plan.pickAlive(g, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := cloneResultFields(first)
	for step := 0; step < 4; step++ {
		if _, err := ix.Update(plan.pickAlive(g, 4), nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	requireEqualResults(t, "immutability", first, snapshot)
}

// cloneResultFields deep-copies the per-node fields compared by
// requireEqualResults so later mutation of the original would be caught.
func cloneResultFields(r *Result) *Result {
	c := *r
	c.KHopSize = append([]int(nil), r.KHopSize...)
	c.LCentrality = append([]float64(nil), r.LCentrality...)
	c.Index = append([]float64(nil), r.Index...)
	c.Sites = append([]int32(nil), r.Sites...)
	c.CellOf = append([]int32(nil), r.CellOf...)
	c.DistToSite = append([]int32(nil), r.DistToSite...)
	c.Records = make([][]SiteDist, len(r.Records))
	for v := range r.Records {
		c.Records[v] = append([]SiteDist(nil), r.Records[v]...)
	}
	c.SegmentNodes = append([]int32(nil), r.SegmentNodes...)
	c.VoronoiNodes = append([]int32(nil), r.VoronoiNodes...)
	c.Boundary = append([]int32(nil), r.Boundary...)
	c.Edges = make([]SiteEdge, len(r.Edges))
	for i, e := range r.Edges {
		e.Path = append([]int32(nil), e.Path...)
		c.Edges[i] = e
	}
	c.Coarse = r.Coarse.Clone()
	c.Skeleton = r.Skeleton.Clone()
	c.Loops = make([]Loop, len(r.Loops))
	for i, l := range r.Loops {
		l.Sites = append([]int32(nil), l.Sites...)
		c.Loops[i] = l
	}
	return &c
}

// BenchmarkIncrementalUpdate measures one steady-state churn update on a
// large field (fail a fresh batch, revive the previous one), the number the
// churn bench's updates/sec claim rests on.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, size := range []int{1, 10, 100} {
		b.Run("batch"+itoa(size), func(b *testing.B) {
			g := nettest.Grid("window", 100000, 7, 1).Graph
			ix, err := NewIncrementalExtractor(g, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			plan := &churnPlan{state: 1}
			var prev []int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := plan.pickAlive(g, size)
				if _, err := ix.Update(batch, prev); err != nil {
					b.Fatal(err)
				}
				prev = batch
			}
		})
	}
}
