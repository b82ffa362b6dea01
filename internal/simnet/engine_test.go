package simnet_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// mixProgram floods a TTL token, alternating packed and generic encodings
// per node, and records every delivery in arrival order — a sensitive probe
// of inbox order, payload routing and counter parity across engines.
type mixProgram struct {
	log []string
}

type ttlTok struct {
	ID  int32
	TTL int32
}

func (p *mixProgram) send(ctx *simnet.Context, id, ttl int32) {
	if ctx.ID()%2 == 0 {
		ctx.BroadcastPacked(7, []uint64{uint64(uint32(id))<<32 | uint64(uint32(ttl))})
	} else {
		ctx.Broadcast(ttlTok{ID: id, TTL: ttl})
	}
}

func (p *mixProgram) Init(ctx *simnet.Context) {
	p.send(ctx, int32(ctx.ID()), 2)
}

func (p *mixProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	for _, env := range inbox {
		var id, ttl int32
		packed := false
		if kind, ws, ok := env.Packed(); ok {
			if kind != 7 || len(ws) != 1 {
				continue
			}
			id, ttl = int32(uint32(ws[0]>>32)), int32(uint32(ws[0]))
			packed = true
		} else if tok, ok := env.Payload.(ttlTok); ok {
			id, ttl = tok.ID, tok.TTL
		} else {
			continue
		}
		p.log = append(p.log, fmt.Sprintf("%d<-%d id=%d ttl=%d packed=%v",
			ctx.ID(), env.From, id, ttl, packed))
		if ttl > 0 {
			p.send(ctx, id, ttl-1)
		}
	}
}

// doubleSender unicasts two messages to its first neighbor at Init —
// exceeding the degree-capacity inbox window of middle line nodes, which
// exercises the parallel engine's overflow spill path.
type doubleSender struct {
	got []int
}

func (p *doubleSender) Init(ctx *simnet.Context) {
	if ctx.ID()%2 == 0 && ctx.Degree() > 0 {
		nb := int(ctx.Neighbors()[0])
		ctx.Send(nb, ctx.ID()*10)
		ctx.Send(nb, ctx.ID()*10+1)
	}
}

func (p *doubleSender) Step(_ *simnet.Context, inbox []simnet.Envelope) {
	for _, env := range inbox {
		if v, ok := env.Payload.(int); ok {
			p.got = append(p.got, v)
		}
	}
}

// runEngine executes one fresh simulation with the given engine forced.
func runEngine(t *testing.T, g *graph.Graph, build func() []simnet.Program,
	eng simnet.Engine, jitter int, maxRounds int) ([]simnet.Program, simnet.Stats, error) {
	t.Helper()
	programs := build()
	sim, err := simnet.New(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	sim.Engine = eng
	sim.Jitter, sim.JitterSeed = jitter, 42
	sim.MaxRounds = maxRounds
	sim.RecordRounds, sim.RecordPerNode = true, true
	stats, err := sim.Run()
	return programs, stats, err
}

// assertStatsEqual compares everything observable except the engine name.
func assertStatsEqual(t *testing.T, label string, serial, parallel simnet.Stats) {
	t.Helper()
	serial.Engine, parallel.Engine = "", ""
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("%s: stats diverge\nserial:   %+v\nparallel: %+v", label, serial, parallel)
	}
}

// TestEngineParityMixedPayloads checks that serial and parallel engines
// produce identical inbox sequences, stats, per-round accounting and
// per-node counters for a program mixing packed and generic payloads, with
// and without jitter.
func TestEngineParityMixedPayloads(t *testing.T) {
	for _, g := range map[string]*graph.Graph{"line12": line(12), "star9": star(9)} {
		for _, jitter := range []int{0, 2} {
			label := fmt.Sprintf("jitter=%d", jitter)
			build := func() []simnet.Program {
				ps := make([]simnet.Program, g.N())
				for i := range ps {
					ps[i] = &mixProgram{}
				}
				return ps
			}
			sp, ss, err := runEngine(t, g, build, simnet.EngineSerial, jitter, 0)
			if err != nil {
				t.Fatal(err)
			}
			pp, ps, err := runEngine(t, g, build, simnet.EngineParallel, jitter, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ss.Engine != "serial" || ps.Engine != "parallel" {
				t.Fatalf("%s: engines not forced: %q vs %q", label, ss.Engine, ps.Engine)
			}
			assertStatsEqual(t, label, ss, ps)
			for v := range sp {
				sl, pl := sp[v].(*mixProgram).log, pp[v].(*mixProgram).log
				if !reflect.DeepEqual(sl, pl) {
					t.Fatalf("%s: node %d inbox sequence diverges\nserial:   %v\nparallel: %v",
						label, v, sl, pl)
				}
			}
		}
	}
}

// TestEngineParityOverflow drives more unicasts into a node than its degree
// — the parallel engine must spill past its degree-capacity window and
// still deliver in the serial order.
func TestEngineParityOverflow(t *testing.T) {
	g := line(6)
	build := func() []simnet.Program {
		ps := make([]simnet.Program, g.N())
		for i := range ps {
			ps[i] = &doubleSender{}
		}
		return ps
	}
	sp, ss, err := runEngine(t, g, build, simnet.EngineSerial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pp, ps, err := runEngine(t, g, build, simnet.EngineParallel, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsEqual(t, "overflow", ss, ps)
	for v := range sp {
		sg, pg := sp[v].(*doubleSender).got, pp[v].(*doubleSender).got
		if !reflect.DeepEqual(sg, pg) {
			t.Fatalf("node %d delivery order diverges: serial %v vs parallel %v", v, sg, pg)
		}
	}
	if got := sp[1].(*doubleSender).got; len(got) != 4 {
		t.Fatalf("node 1 should receive 4 unicasts (2 each from nodes 0 and 2), got %v", got)
	}
}

// TestRecvCountedAtDeliveryJitter pins the receive-counter bugfix: receives
// are stamped when an envelope reaches an inbox, not when it is enqueued.
// Under jitter the two moments are rounds apart, so the per-node receive
// total must always equal the delivered total — on both engines.
func TestRecvCountedAtDeliveryJitter(t *testing.T) {
	g := line(8)
	build := func() []simnet.Program {
		ps := make([]simnet.Program, g.N())
		for i := range ps {
			ps[i] = &mixProgram{}
		}
		return ps
	}
	for _, eng := range []simnet.Engine{simnet.EngineSerial, simnet.EngineParallel} {
		_, stats, err := runEngine(t, g, build, eng, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		recv, delivered := 0, 0
		for _, c := range stats.NodeRecv {
			recv += c
		}
		for _, r := range stats.PerRound {
			delivered += r.Deliveries
		}
		if recv != delivered {
			t.Errorf("%v: NodeRecv total %d != delivered total %d", eng, recv, delivered)
		}
	}
}

// TestRecvNotCountedOnAbort aborts a jittered run at the round limit while
// messages are still in flight: the undelivered messages must not appear in
// NodeRecv (the pre-fix engine counted them at enqueue time).
func TestRecvNotCountedOnAbort(t *testing.T) {
	g := line(8)
	build := func() []simnet.Program {
		ps := make([]simnet.Program, g.N())
		for i := range ps {
			ps[i] = &mixProgram{}
		}
		return ps
	}
	for _, eng := range []simnet.Engine{simnet.EngineSerial, simnet.EngineParallel} {
		_, stats, err := runEngine(t, g, build, eng, 3, 1)
		if !errors.Is(err, simnet.ErrRoundLimit) {
			t.Fatalf("%v: expected ErrRoundLimit, got %v", eng, err)
		}
		recv, delivered := 0, 0
		for _, c := range stats.NodeRecv {
			recv += c
		}
		for _, r := range stats.PerRound {
			delivered += r.Deliveries
		}
		if recv != delivered {
			t.Errorf("%v: NodeRecv total %d != delivered total %d at abort", eng, recv, delivered)
		}
		// With Jitter=3 most Init transmissions are still in flight after
		// round 1; if receives were counted at enqueue, recv would cover
		// every neighbor of every Init broadcast.
		sent := 0
		for _, r := range stats.PerRound {
			sent += r.Messages
		}
		if sent == 0 || recv >= 2*(g.N()-1) {
			t.Errorf("%v: abort test not probing in-flight messages (sent=%d recv=%d)", eng, sent, recv)
		}
	}
}

// TestEngineZeroValueIsParallel checks that the zero-value engine is the
// parallel one, even on a graph far too small to split into chunks, and
// that values naming neither engine are rejected.
func TestEngineZeroValueIsParallel(t *testing.T) {
	g := line(4)
	build := func() []simnet.Program {
		ps := make([]simnet.Program, g.N())
		for i := range ps {
			ps[i] = &mixProgram{}
		}
		return ps
	}
	var def simnet.Engine
	_, stats, err := runEngine(t, g, build, def, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Engine != "parallel" {
		t.Errorf("zero-value engine on %d nodes ran %q, want parallel", g.N(), stats.Engine)
	}
	if _, _, err := runEngine(t, g, build, simnet.EngineSerial+1, 0, 0); err == nil {
		t.Error("out-of-range engine accepted")
	}
}
