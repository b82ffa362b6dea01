package bench

import (
	"fmt"
	"runtime"

	"bfskel"
	"bfskel/internal/protocol"
)

// Workload is one named set of inputs with the closed loop that drives it:
// one goroutine, one operation in flight, every input generated in-process
// from the seed. BENCHMARK.json records why each workload was chosen.
type Workload struct {
	Name string
	// Op names the headline timed operation, reported as op_ms_p50:
	// "protocol", "extract" or "update".
	Op  string
	run func(r *recorder) error
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{Name: "paper-fields", Op: "protocol", run: paperFields},
	{Name: "field-1m", Op: "extract", run: field1M},
	{Name: "churn-100k", Op: "update", run: churn(10, 5, 20)},
	{Name: "churn-burst-100k", Op: "update", run: churn(100, 3, 4)},
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// reps is the number of setup repetitions behind setup_s.
func (r *recorder) reps() int {
	if r.cfg.Tiny {
		return 1
	}
	return 3
}

// field is one built network with its warmed extraction engine.
type field struct {
	name  string
	spec  bfskel.NetworkSpec
	net   *bfskel.Network
	eng   *bfskel.Extractor
	edges int // graph edges as built, before any churn
	holes int
	ref   *bfskel.Result // warm-up extraction
	want  uint64         // Digest(ref)
}

// buildField deploys and connects one grid-layout UDG field calibrated to
// the target degree, recording the build time.
func (r *recorder) buildField(name, shape string, n int, deg float64) (*field, error) {
	spec := bfskel.NetworkSpec{
		Shape: bfskel.MustShape(shape), N: n, TargetDeg: deg,
		Seed: r.cfg.Seed, Layout: bfskel.LayoutGrid,
	}
	var net *bfskel.Network
	ms, err := r.call("bfskel.BuildNetwork", func() (err error) {
		net, err = bfskel.BuildNetwork(spec)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	r.sample("bfskel.build_network_ms", "ms", ms)
	return &field{
		name: name, spec: spec, net: net, eng: net.ExtractorObs(bfskel.ObsScope{Tracer: r.tracer}),
		edges: net.Graph.NumEdges(), holes: spec.Shape.Poly.NumHoles(),
	}, nil
}

// warm runs the untimed extraction that fills the engine's pools and fixes
// the digest every later extraction of the field must reproduce.
func (f *field) warm(p bfskel.Params) error {
	res, err := f.eng.Extract(p)
	if err != nil {
		return fmt.Errorf("warm-up extract %s: %w", f.name, err)
	}
	f.ref, f.want = res, Digest(res)
	return nil
}

// reference records the fields' warm-up outputs: golden-checked digests and
// cycle counts, the homotopy tally, and the exact pipeline counts summed
// over the fields.
func (r *recorder) reference(fields []*field) {
	sums := map[string]float64{}
	for _, f := range fields {
		res, st := f.ref, f.ref.Stats
		r.digest(f.name+".digest", FormatDigest(f.want))
		r.digest(f.name+".cycles", fmt.Sprintf("%d/%d", res.Skeleton.CycleRank(), f.holes))
		r.checkHomotopy(res, f.holes)
		sums["core.sites"] += float64(st.Sites)
		sums["core.election_rounds"] += float64(st.ElectionRounds)
		sums["core.voronoi_floods"] += float64(st.Floods)
		sums["core.skeleton_nodes"] += float64(res.Skeleton.NumNodes())
		sums["graph.edges"] += float64(f.edges)
		for _, ph := range st.Phases {
			sums["core."+ph.Name+"_sweeps"] += float64(ph.Sweeps)
			sums["core."+ph.Name+"_visited"] += float64(ph.Visited)
		}
	}
	for name, v := range sums {
		r.set(name, "count", v)
	}
}

// extract runs one timed from-scratch extraction, recording its latency and
// per-stage times. Traced runs alternate the engine's tracer on and off per
// extraction, or per pass inside one, so the same run yields the tracing
// overhead.
func (r *recorder) extract(eng *bfskel.Extractor, p bfskel.Params) (*bfskel.Result, error) {
	unit := r.extracts
	if r.group >= 0 {
		unit = r.passes
	}
	r.extracts++
	traced := r.tracer != nil && unit%2 == 0
	eng.Tracer = nil
	if traced {
		eng.Tracer = r.tracer
	}
	span := "Extractor.Extract"
	if r.tracer != nil && !traced {
		span += ".untraced"
	}
	var res *bfskel.Result
	ms, err := r.op("extract", span, func() (err error) {
		res, err = eng.Extract(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.addLatency("extract", ms)
	stages := 0.0
	for _, ph := range res.Stats.Phases {
		d := float64(ph.Duration) / 1e6
		r.sample("core."+ph.Name+"_ms", "ms", d)
		stages += d
	}
	r.sample("core.extract_self_ms", "ms", ms-stages)
	if r.tracer != nil {
		r.sample(fmt.Sprintf("overhead:%d", b2i(traced)), "ms", ms)
	}
	return res, nil
}

// sameDigest checks a result against the digest it must reproduce.
func sameDigest(res *bfskel.Result, want uint64) error {
	if got := Digest(res); got != want {
		return fmt.Errorf("result digest %s, want %s", FormatDigest(got), FormatDigest(want))
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runProtocol runs phases 1-2 as message-passing node programs at the radii
// the centralized result resolved, so the two must agree.
func runProtocol(f *field, opts bfskel.ProtocolOptions) (*bfskel.DistributedResult, error) {
	res := f.ref
	return bfskel.RunProtocolPhasesObs(f.net, res.EffectiveK, res.Params.L, res.EffectiveScope, res.Params.Alpha, opts)
}

// paperFields: every pass extracts each of the paper's 11 fields on its
// warmed engine, then runs the distributed protocol at that result's radii.
// At n~1.3k-3.4k per-call overhead, the kernel auto-cutovers and the simnet
// round engine dominate; the working set stays in cache and the identify
// stage replays its visit log.
func paperFields(r *recorder) error {
	scs := append([]bfskel.Scenario{bfskel.Fig1Scenario()}, bfskel.Fig4Scenarios()...)
	if r.cfg.Tiny {
		scs = scs[:2]
		for i := range scs {
			scs[i].N = 700
		}
	}
	p := bfskel.DefaultParams()
	type fieldRun struct {
		*field
		d *bfskel.DistributedResult // warm-up protocol run
	}
	fields, err := setup(r, r.reps(), func() ([]fieldRun, error) {
		out := make([]fieldRun, 0, len(scs))
		for _, sc := range scs {
			f, err := r.buildField(sc.Name, sc.ShapeName, sc.N, sc.Deg)
			if err != nil {
				return nil, err
			}
			if err := f.warm(p); err != nil {
				return nil, err
			}
			d, err := runProtocol(f, bfskel.ProtocolOptions{Tracer: r.tracer})
			if err != nil {
				return nil, fmt.Errorf("warm-up protocol %s: %w", f.name, err)
			}
			out = append(out, fieldRun{f, d})
		}
		return out, nil
	})
	if err != nil {
		return err
	}

	plain := make([]*field, len(fields))
	var msgs, rounds float64
	var phase [len(protocol.PhaseNames)][2]float64
	for i, f := range fields {
		plain[i] = f.field
		r.count(matchProtocol(f.d, f.ref))
		r.digest(f.name+".messages", fmt.Sprint(f.d.TotalMessages()))
		r.digest(f.name+".rounds", fmt.Sprint(f.d.TotalRounds()))
		msgs += float64(f.d.TotalMessages())
		rounds += float64(f.d.TotalRounds())
		for j, st := range f.d.PhaseStats {
			phase[j][0] += float64(st.Messages)
			phase[j][1] += float64(st.Rounds)
		}
	}
	r.reference(plain)
	r.set("protocol_messages", "count", msgs)
	r.set("protocol_rounds", "count", rounds)
	for j, name := range protocol.PhaseNames {
		r.set("simnet."+name+"_messages", "count", phase[j][0])
		r.set("simnet."+name+"_rounds", "count", phase[j][1])
	}
	if r.cfg.Trace {
		r.layers(plain, p)
		r.engines(plain)
	}

	opts := bfskel.ProtocolOptions{Tracer: r.tracer}
	// At least two passes, so a traced run has one with and one without the
	// extraction tracer. A pass extracts every field, then runs every
	// protocol, after collecting the previous pass's garbage: the protocol
	// allocates enough to start a collection nearly every run, and the
	// extractions, which allocate little, would otherwise share the cost of
	// whichever cycle happened to overlap them.
	for r.more(2 * 2 * len(fields)) {
		runtime.GC()
		r.beginGroup()
		ok := true
		for _, f := range fields {
			res, err := r.extract(f.eng, p)
			if err == nil {
				err = sameDigest(res, f.want)
			}
			r.count(err)
			ok = ok && err == nil
		}
		for _, f := range fields {
			var d *bfskel.DistributedResult
			ms, err := r.op("protocol", "bfskel.RunProtocolPhasesObs", func() (err error) {
				d, err = runProtocol(f.field, opts)
				return err
			})
			if err == nil {
				r.addLatency("protocol", ms)
				err = matchProtocol(d, f.ref)
			}
			if err == nil && (d.TotalMessages() != f.d.TotalMessages() || d.TotalRounds() != f.d.TotalRounds()) {
				err = fmt.Errorf("%s: protocol sent %d messages in %d rounds, warm-up %d in %d",
					f.name, d.TotalMessages(), d.TotalRounds(), f.d.TotalMessages(), f.d.TotalRounds())
			}
			r.count(err)
			ok = ok && err == nil
		}
		r.endGroup(ok)
		if ok {
			r.passes++
		}
	}
	return nil
}

// field1M times repeated extractions of one million-node field. The working
// set exceeds the last-level cache, the visit log is off (n > 2^17),
// and building the graph costs about as much as extracting from it.
func field1M(r *recorder) error {
	n, minOps := 1_000_000, 4
	if r.cfg.Tiny {
		n, minOps = 4000, 2
	}
	p := bfskel.DefaultParams()
	f, err := setup(r, r.reps(), func() (*field, error) {
		f, err := r.buildField("window-1m", "window", n, 7)
		if err != nil {
			return nil, err
		}
		return f, f.warm(p)
	})
	if err != nil {
		return err
	}
	r.reference([]*field{f})
	if r.cfg.Trace {
		r.layers([]*field{f}, p)
	}
	for r.more(minOps) {
		// Each extraction leaves ~180 MB of garbage. Collecting it before
		// the next one keeps that debt out of the next timing and makes the
		// peak RSS the live state plus one extraction, not a point that
		// depends on where the collector's pacing happened to fall.
		runtime.GC()
		res, err := r.extract(f.eng, p)
		if err == nil {
			err = sameDigest(res, f.want)
		}
		r.count(err)
	}
	return nil
}

// churn streams steady-state churn through a ChurnSession on a 10^5-node
// field: each update fails batch fresh scattered nodes and restores the
// previous batch, after warmup untimed updates. Every verifyEvery-th update
// is checked against a timed from-scratch extraction of the mutated graph.
// With 10-node batches the incremental repair does nearly all the work; with
// 100-node batches it costs more than recomputing, so a change that trades
// one batch size against the other shows on one of the two workloads.
func churn(batch, warmup, verifyEvery int) func(r *recorder) error {
	return func(r *recorder) error {
		n := 100_000
		if r.cfg.Tiny {
			n = 3000
		}
		p := bfskel.DefaultParams()
		type state struct {
			f    *field
			s    *bfskel.ChurnSession
			pick *victims
			prev []int32
		}
		st, err := setup(r, r.reps(), func() (*state, error) {
			f, err := r.buildField("window-100k", "window", n, 7)
			if err != nil {
				return nil, err
			}
			s, err := f.net.ChurnSessionObs(p, bfskel.ObsScope{Tracer: r.tracer})
			if err != nil {
				return nil, fmt.Errorf("open churn session: %w", err)
			}
			f.ref, f.want = s.Result(), Digest(s.Result())
			st := &state{f: f, s: s, pick: newVictims(r.cfg.Seed, batch, f.net.N())}
			for i := 0; i < warmup; i++ {
				b := st.pick.next(s.Alive)
				if _, err := s.Step(b, st.prev); err != nil {
					return nil, fmt.Errorf("warm-up update %d: %w", i, err)
				}
				st.prev = b
			}
			// Fill the verifying engine's pools on the mutated graph; the
			// warm-up updates must already match it.
			full, err := f.eng.Extract(p)
			if err != nil {
				return nil, fmt.Errorf("warm-up extract: %w", err)
			}
			r.count(sameDigest(s.Result(), Digest(full)))
			return st, nil
		})
		if err != nil {
			return err
		}
		f, s := st.f, st.s
		r.reference([]*field{f})
		r.digest("warmup.digest", FormatDigest(Digest(s.Result())))
		if r.cfg.Trace {
			r.layers([]*field{f}, p)
		}

		var fallbacks, updates, changed, dirty float64
		// At least two verified updates, so a traced run extracts both with
		// and without the tracer.
		for i := 1; r.more(2 * (verifyEvery + 1)); i++ {
			b := st.pick.next(s.Alive)
			before := s.Result()
			var res *bfskel.Result
			ms, err := r.op("update", "ChurnSession.Step", func() (err error) {
				res, err = s.Step(b, st.prev)
				return err
			})
			st.prev = b
			if err == nil {
				r.addLatency("update", ms)
				u := s.LastUpdate()
				updates++
				r.sample("core.update_ms", "ms", float64(u.Duration)/1e6)
				r.sample("core.update_dirty_frac", "frac", u.DirtyFraction)
				r.sample("core.update_repaired_cells", "count", float64(u.RepairedCells))
				r.sample("core.update_attempts", "count", float64(u.Attempts))
				if u.Fallback {
					fallbacks++
				}
				dirty += float64(u.DirtyNodes)
				for v, c := range res.CellOf {
					if c != before.CellOf[v] {
						changed++
					}
				}
			}
			if err == nil && i%verifyEvery == 0 {
				full, ferr := r.extract(f.eng, p)
				r.count(ferr)
				if ferr == nil {
					r.checkHomotopy(full, f.holes)
					if err = sameDigest(res, Digest(full)); err != nil {
						err = fmt.Errorf("update %d differs from a from-scratch extraction: %w", i, err)
					}
				}
			}
			r.count(err)
		}
		if updates > 0 {
			r.set("core.update_fallback_frac", "frac", fallbacks/updates)
		}
		if dirty > 0 {
			r.set("core.update_changed_frac", "frac", changed/dirty)
		}
		return nil
	}
}

// victims draws churn batches: distinct, currently alive nodes picked by a
// seeded 64-bit LCG (Knuth's MMIX constants), so a seed fixes the stream.
type victims struct {
	state   uint64
	n, size int
	seen    map[int32]bool
}

func newVictims(seed int64, size, n int) *victims {
	return &victims{state: uint64(seed)*0x9e3779b97f4a7c15 + uint64(size), n: n, size: size, seen: map[int32]bool{}}
}

func (v *victims) next(alive func(int32) bool) []int32 {
	clear(v.seen)
	out := make([]int32, 0, v.size)
	for guard := 0; len(out) < v.size && guard < 100*v.size+1000; guard++ {
		v.state = v.state*6364136223846793005 + 1442695040888963407
		u := int32((v.state >> 33) % uint64(v.n))
		if alive(u) && !v.seen[u] {
			v.seen[u] = true
			out = append(out, u)
		}
	}
	return out
}
