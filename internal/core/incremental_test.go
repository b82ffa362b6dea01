package core

import (
	"math"
	"runtime"
	"testing"
	"time"

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

// pickSites draws up to k distinct sites of the list.
func (c *churnPlan) pickSites(sites []int32, k int) []int32 {
	out := make([]int32, 0, k)
	seen := make(map[int32]bool, k)
	for guard := 0; len(out) < k && len(sites) > 0 && guard < 100*k+1000; guard++ {
		s := sites[c.next(len(sites))]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// requireIncrementalEquivalence steps the incremental extractor through the
// given churn batches and, after every step, asserts the patched Result —
// its Stats outcome counters included — is bit-identical to a from-scratch
// extraction on the same mutated graph, and that the engine's saturation
// counts describe its ball matrix. Each removal batch also removes
// siteKills of the current sites. It returns each step's fallback reason
// ("" for a step that stayed incremental).
func requireIncrementalEquivalence(t *testing.T, name string, g *graph.Graph, p Params, batchSizes []int, seed uint64, siteKills int) []string {
	t.Helper()
	ix, err := NewIncrementalExtractor(g, p, nil, nil)
	if err != nil {
		t.Fatalf("%s: NewIncrementalExtractor: %v", name, err)
	}
	plan := &churnPlan{state: seed}
	var reasons []string
	for step, size := range batchSizes {
		var remove, revive []int32
		if step%3 == 2 {
			// Every third batch revives what it can instead of removing.
			revive = plan.pickDead(g, size)
		} else {
			remove = append(plan.pickSites(ix.Result().Sites, siteKills), plan.pickAlive(g, size)...)
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
		requireEqualOutcome(t, nameStep(name, step, ix), got.Stats, want.Stats)
		requireSaturationCounts(t, nameStep(name, step, ix), ix.e, p)
		reasons = append(reasons, ix.LastUpdate().FallbackReason)
	}
	return reasons
}

// outcome is the part of Stats that describes what a run produced: every
// counter except Phases, Total and Floods, which measure work.
type outcome struct {
	Sites, SegmentNodes, VoronoiNodes, Edges       int
	FakeLoops, GenuineLoops, PrunedNodes           int
	BoundaryNodes, MedianKHopBall                  int
	ElectionRounds, KAdjustments, ScopeAdjustments int
}

func outcomeOf(s *Stats) outcome {
	return outcome{
		s.Sites, s.SegmentNodes, s.VoronoiNodes, s.Edges,
		s.FakeLoops, s.GenuineLoops, s.PrunedNodes,
		s.BoundaryNodes, s.MedianKHopBall,
		s.ElectionRounds, s.KAdjustments, s.ScopeAdjustments,
	}
}

// requireEqualOutcome asserts two runs report the same outcome counters.
func requireEqualOutcome(t *testing.T, name string, got, want *Stats) {
	t.Helper()
	if g, w := outcomeOf(got), outcomeOf(want); g != w {
		t.Fatalf("%s: outcome counters differ:\n got %+v\nwant %+v", name, g, w)
	}
}

// requireSaturationCounts asserts the engine's per-radius saturation counts
// equal a fresh count over its current ball matrix.
func requireSaturationCounts(t *testing.T, name string, e *Extractor, p Params) {
	t.Helper()
	n := float64(e.g.N())
	for _, c := range []struct {
		kind   string
		want   int
		limit  float64
		counts []int
	}{
		{"K", p.K, kSaturationFraction * n, e.satK},
		{"scope", p.Scope(), scopeSaturationFraction * n, e.satS},
	} {
		for r := 2; r <= c.want; r++ {
			fresh := 0
			for v := 0; v < e.g.N(); v++ {
				if float64(e.ball(v, r)) <= c.limit {
					fresh++
				}
			}
			if c.counts[r] != fresh {
				t.Fatalf("%s: %s saturation count at radius %d is %d, a fresh count gives %d",
					name, c.kind, r, c.counts[r], fresh)
			}
		}
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
		[]int{1, 1, 2, 8, 8, 8, 1}, 42, 0)
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
				[]int{1, 1, 8, 8, 64, 64}, 7, 0)
		}
	}
}

// TestIncrementalParamSweep: the identify repair floods the ball ring in
// one of three shapes — ring radius maxR = L (K <= L, the sums pushed as
// the flood ends), maxR > L (scope > L, pushed mid-flood) and K > L (a
// second flood per batch pushes the finished K-ball sizes) — and the
// Voronoi repair admits records by alpha. Each (K, L, scope, alpha) runs a
// churn stream whose removal batches also take out two sites, at
// GOMAXPROCS 1 and 4. Every step must match a from-scratch extraction bit
// for bit, and every removal step must stay incremental.
func TestIncrementalParamSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []Params{
		{K: 3, L: 4, Alpha: 1},
		{K: 5, L: 3, Alpha: 1},
		{K: 3, L: 3, LocalMaxScope: 5, Alpha: 1},
		{K: 4, L: 4, Alpha: 0},
		{K: 4, L: 4, Alpha: 2},
	} {
		name := "K" + itoa(p.K) + "L" + itoa(p.L) + "S" + itoa(p.Scope()) + "a" + itoa(int(p.Alpha))
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			g := nettest.Grid("window", 1500, 7, 2).Graph
			ref, err := NewExtractor(g).Extract(p)
			if err != nil {
				t.Fatal(err)
			}
			if ref.EffectiveK != p.K || ref.EffectiveScope != p.Scope() || ref.Stats.ElectionRounds != 1 {
				t.Fatalf("%s: field guards the radii (K=%d scope=%d rounds=%d)",
					name, ref.EffectiveK, ref.EffectiveScope, ref.Stats.ElectionRounds)
			}
			reasons := requireIncrementalEquivalence(t, name+"/procs"+itoa(procs), g, p,
				[]int{1, 8, 8, 30, 8, 30, 1, 30}, 11, 2)
			for step, r := range reasons {
				if step%3 != 2 && r != "" {
					t.Fatalf("%s procs=%d step %d: a removal that loses sites fell back (%s)", name, procs, step, r)
				}
			}
		}
	}
}

// TestIncrementalSaturatedField: a dense field whose saturation guard
// shrinks K and the scope yet still elects in one round, so its updates
// stay incremental until churn moves a guarded radius. The stream must hit
// the radius-drift fallback, and every step must match a full extraction.
func TestIncrementalSaturatedField(t *testing.T) {
	g := nettest.Grid("window", 300, 25, 1).Graph
	p := DefaultParams()
	ref, err := NewExtractor(g).Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.EffectiveK != 2 || ref.EffectiveScope != 1 || ref.Stats.ElectionRounds != 1 {
		t.Fatalf("field is not saturated single-round: K=%d scope=%d rounds=%d",
			ref.EffectiveK, ref.EffectiveScope, ref.Stats.ElectionRounds)
	}
	reasons := requireIncrementalEquivalence(t, "window-saturated", g, p,
		[]int{1, 5, 9, 1, 5, 9, 1, 5, 9, 1, 5, 9}, 1, 0)
	drift := false
	for _, r := range reasons {
		drift = drift || r == "radius-drift"
	}
	if !drift {
		t.Fatalf("no update fell back on radius drift: %q", reasons)
	}
}

// TestIncrementalSmallBatchesStayIncremental: single-node churn must take
// the repair path, not the fallback — the whole point of the subsystem.
func TestIncrementalSmallBatchesStayIncremental(t *testing.T) {
	g := nettest.Grid("onehole", 700, 6.5, 3).Graph
	ix, err := NewIncrementalExtractor(g, DefaultParams(), nil, nil)
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
// churn benchmarks at sizes where repairs span dozens of cells. Each step
// fails a batch of fresh nodes and restores the previous batch: ten-node
// batches on a ~3·10^4-node field, and hundred-node bursts, whose ball,
// delta and fresh passes each fill many 64-source batches and whose
// Voronoi repair re-floods most of the cells, on a ~6·10^4-node one. No
// step may fall back, every step's Voronoi stage must repair in one pass
// (Attempts 1, at most every site's cell re-flooded), and every step must
// match a from-scratch extraction bit for bit at GOMAXPROCS 1 and 4 alike,
// the two runs each other too (the batched passes push their sums with
// atomic adds, so the schedule must not show).
func TestIncrementalFailRestoreStream(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name     string
		n, batch int
		steps    int
	}{
		{"window-30k", 30_000, 10, 8},
		{"window-60k-burst", 60_000, 100, 3},
	} {
		var first []*Result
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			g := nettest.Grid("window", c.n, 7, 1).Graph
			p := DefaultParams()
			ix, err := NewIncrementalExtractor(g, p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan := &churnPlan{state: 1}
			var prev []int32
			for step := 0; step < c.steps; step++ {
				batch := plan.pickAlive(g, c.batch)
				got, err := ix.Update(batch, prev)
				if err != nil {
					t.Fatalf("%s procs=%d step %d: Update: %v", c.name, procs, step, err)
				}
				prev = batch
				u := ix.LastUpdate()
				if u.Fallback {
					t.Fatalf("%s procs=%d step %d: fell back (%s)", c.name, procs, step, u.FallbackReason)
				}
				if u.Attempts != 1 || u.RepairedCells > len(got.Sites) {
					t.Fatalf("%s procs=%d step %d: repair took %d passes over %d cells (%d sites)",
						c.name, procs, step, u.Attempts, u.RepairedCells, len(got.Sites))
				}
				name := nameStep(c.name+"/procs"+itoa(procs), step, ix)
				want, err := NewExtractor(g).Extract(p)
				if err != nil {
					t.Fatalf("%s: reference extract: %v", name, err)
				}
				requireEqualResults(t, name, got, want)
				requireEqualOutcome(t, name, got.Stats, want.Stats)
				requireSaturationCounts(t, name, ix.e, p)
				if procs == 1 {
					first = append(first, got)
				} else {
					requireEqualResults(t, name+" vs procs1", got, first[step])
					requireEqualOutcome(t, name+" vs procs1", got.Stats, first[step].Stats)
				}
			}
		}
	}
}

// TestIncrementalMixedBatchStream: one fail/restore stream on a ~3·10^4-node
// field alternates ten- and hundred-node batches, so consecutive updates
// switch between repairs of a few cells and repairs of most of them, each
// patching the previous one's records. No step may fall back, and every
// step must match a from-scratch extraction bit for bit. The stream runs
// at two and three workers: the odd count moves
// the chunk seams of the spliced pair walk (and the binary-searched cursor
// each chunk seeds into the previous edges).
func TestIncrementalMixedBatchStream(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 3} {
		runtime.GOMAXPROCS(procs)
		g := nettest.Grid("window", 30_000, 7, 1).Graph
		p := DefaultParams()
		ix, err := NewIncrementalExtractor(g, p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan := &churnPlan{state: 2}
		var prev []int32
		for step, size := range []int{10, 100, 10, 100, 10, 10, 100, 100, 10} {
			batch := plan.pickAlive(g, size)
			got, err := ix.Update(batch, prev)
			if err != nil {
				t.Fatalf("procs=%d step %d: Update: %v", procs, step, err)
			}
			prev = batch
			if u := ix.LastUpdate(); u.Fallback {
				t.Fatalf("procs=%d step %d (batch %d): fell back (%s)", procs, step, size, u.FallbackReason)
			}
			name := nameStep("window-30k-mixed/procs"+itoa(procs), step, ix)
			want, err := NewExtractor(g).Extract(p)
			if err != nil {
				t.Fatalf("%s: reference extract: %v", name, err)
			}
			requireEqualResults(t, name, got, want)
			requireEqualOutcome(t, name, got.Stats, want.Stats)
			requireSaturationCounts(t, name, ix.e, p)
		}
	}
}

// TestIncrementalMassRemovalStaysIncremental: removing a third of the
// network in one batch does not run the whole pipeline from scratch. The
// update must repair in one pass, or fall back only because the batch
// moved a guard radius or collapsed the site population — and the result
// must be bit-identical to the reference.
func TestIncrementalMassRemovalStaysIncremental(t *testing.T) {
	g := nettest.Grid("window", 600, 6.5, 5).Graph
	p := DefaultParams()
	ix, err := NewIncrementalExtractor(g, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &churnPlan{state: 99}
	remove := plan.pickAlive(g, g.N()/3)
	got, err := ix.Update(remove, nil)
	if err != nil {
		t.Fatal(err)
	}
	switch u := ix.LastUpdate(); {
	case u.Fallback && (u.FallbackReason == "radius-drift" || u.FallbackReason == "min-sites"):
	case !u.Fallback:
		if u.Attempts != 1 || u.RepairedCells == 0 || u.RepairedCells > len(got.Sites) {
			t.Errorf("mass removal repaired %d cells of %d sites in %d passes", u.RepairedCells, len(got.Sites), u.Attempts)
		}
	default:
		t.Fatalf("mass removal neither repaired nor fell back on a guard: %+v", u)
	}
	want, err := NewExtractor(g).Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "mass-removal", got, want)
	requireEqualOutcome(t, "mass-removal", got.Stats, want.Stats)
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
	requireEqualOutcome(t, "revive-all", got.Stats, want.Stats)
}

// TestIncrementalRepeatedDeterminism: the same seed and churn schedule yield
// the same Result sequence, run to run and across worker counts.
func TestIncrementalRepeatedDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runSequence := func(procs int) []*Result {
		runtime.GOMAXPROCS(procs)
		g := nettest.Grid("twoholes", 700, 6.5, 9).Graph
		ix, err := NewIncrementalExtractor(g, DefaultParams(), nil, nil)
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
	ix, err := NewIncrementalExtractor(g, p, nil, nil)
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

// BenchmarkIncrementalUpdate measures steady-state churn updates on a 10^5
// field (fail a fresh batch, revive the previous one) across batch sizes,
// where the update's cost crosses a from-scratch extraction's. Each size
// reports speedup, the faster of two warmed full extractions over the mean
// update; fallback_frac, the share that ran the whole pipeline; and the
// mean identify, election, voronoi, coarse and refine stage times of the
// updates that stayed incremental.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, size := range []int{1, 10, 30, 50, 100, 200, 400} {
		g := nettest.Grid("window", 100000, 7, 1).Graph
		p := DefaultParams()
		full := warmExtractTime(b, g, p)
		ix, err := NewIncrementalExtractor(g, p, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		plan := &churnPlan{state: 1}
		var prev []int32
		step := func() (*Result, error) {
			batch := plan.pickAlive(g, size)
			res, err := ix.Update(batch, prev)
			prev = batch
			return res, err
		}
		for i := 0; i < 2; i++ {
			if _, err := step(); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		b.Run("batch"+itoa(size), func(b *testing.B) {
			var fallbacks int
			stageTime := make(map[string]time.Duration)
			for i := 0; i < b.N; i++ {
				res, err := step()
				if err != nil {
					b.Fatal(err)
				}
				u := ix.LastUpdate()
				if u.Fallback {
					fallbacks++
					continue
				}
				for _, ph := range res.Stats.Phases {
					stageTime[ph.Name] += ph.Duration
				}
			}
			b.ReportMetric(float64(full)/(float64(b.Elapsed())/float64(b.N)), "speedup")
			b.ReportMetric(float64(fallbacks)/float64(b.N), "fallback_frac")
			if kept := b.N - fallbacks; kept > 0 {
				for _, stage := range []string{"identify", "election", "voronoi", "coarse", "refine"} {
					b.ReportMetric(float64(stageTime[stage])/float64(kept)/1e6, stage+"_ms")
				}
			}
		})
	}
}

// warmExtractTime is the faster of two full extractions on one engine
// after a warm-up run.
func warmExtractTime(b *testing.B, g *graph.Graph, p Params) time.Duration {
	x := NewExtractor(g)
	var best time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		res, err := x.Extract(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 1 || (i == 2 && res.Stats.Total < best) {
			best = res.Stats.Total
		}
	}
	return best
}
