package simnet_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// mixProgram floods every node's token with a TTL of 2. Each step batches
// all still-live tokens it heard into one broadcast of several words (one
// word per token: ID<<32 | TTL), tagged with a kind that varies by sender
// and refilled into the same scratch buffer every step. It logs every
// received token in arrival order — a sensitive probe of inbox order, word
// copying, kind routing and counter parity across engines.
type mixProgram struct {
	log   []string
	words []uint64
}

func mixKind(ctx *simnet.Context) uint8 { return uint8(ctx.ID()%3 + 1) }

func (p *mixProgram) Init(ctx *simnet.Context) {
	p.words = append(p.words[:0], uint64(ctx.ID())<<32|2)
	ctx.Broadcast(mixKind(ctx), p.words)
}

func (p *mixProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	p.words = p.words[:0]
	for _, env := range inbox {
		for _, w := range env.Words {
			id, ttl := w>>32, uint32(w)
			p.log = append(p.log, fmt.Sprintf("%d<-%d kind=%d id=%d ttl=%d",
				ctx.ID(), env.From, env.Kind, id, ttl))
			if ttl > 0 {
				p.words = append(p.words, id<<32|uint64(ttl-1))
			}
		}
	}
	if len(p.words) > 0 {
		ctx.Broadcast(mixKind(ctx), p.words)
	}
}

func mixPrograms(n int) []simnet.Program {
	ps := make([]simnet.Program, n)
	for i := range ps {
		ps[i] = &mixProgram{}
	}
	return ps
}

// runEngine executes one fresh simulation with the given engine forced,
// per-node counters on and its "round" events traced.
func runEngine(t *testing.T, g *graph.Graph, build func() []simnet.Program,
	eng simnet.Engine, jitter int, maxRounds int) ([]simnet.Program, simnet.Stats, []round, error) {
	t.Helper()
	programs := build()
	sim, err := simnet.New(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	sim.Engine = eng
	sim.Jitter, sim.JitterSeed = jitter, 42
	sim.MaxRounds = maxRounds
	rounds := traceRounds(sim)
	sim.RecordPerNode = true
	stats, err := sim.Run()
	return programs, stats, rounds(), err
}

// assertStatsEqual compares everything observable except the engine name.
func assertStatsEqual(t *testing.T, label string, serial, parallel simnet.Stats) {
	t.Helper()
	serial.Engine, parallel.Engine = "", ""
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("%s: stats diverge\nserial:   %+v\nparallel: %+v", label, serial, parallel)
	}
}

// TestEngineParityFlood checks that serial and parallel engines produce
// identical inbox sequences, stats, per-round accounting and per-node
// counters for a batched multi-word flood, with and without jitter.
func TestEngineParityFlood(t *testing.T) {
	for _, g := range map[string]*graph.Graph{"line12": line(12), "star9": star(9)} {
		for _, jitter := range []int{0, 2} {
			label := fmt.Sprintf("jitter=%d", jitter)
			build := func() []simnet.Program { return mixPrograms(g.N()) }
			sp, ss, sr, err := runEngine(t, g, build, simnet.EngineSerial, jitter, 0)
			if err != nil {
				t.Fatal(err)
			}
			pp, ps, pr, err := runEngine(t, g, build, simnet.EngineParallel, jitter, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ss.Engine != "serial" || ps.Engine != "parallel" {
				t.Fatalf("%s: engines not forced: %q vs %q", label, ss.Engine, ps.Engine)
			}
			assertStatsEqual(t, label, ss, ps)
			if !reflect.DeepEqual(sr, pr) {
				t.Errorf("%s: round events diverge\nserial:   %v\nparallel: %v", label, sr, pr)
			}
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

// twiceProgram broadcasts twice in one call: at Init when atInit is set,
// otherwise in its first Step.
type twiceProgram struct{ atInit bool }

func (p twiceProgram) Init(ctx *simnet.Context) {
	ctx.Broadcast(1, nil)
	if p.atInit {
		ctx.Broadcast(1, nil)
	}
}

func (p twiceProgram) Step(ctx *simnet.Context, _ []simnet.Envelope) {
	ctx.Broadcast(1, nil)
	ctx.Broadcast(1, nil)
}

// TestSecondBroadcastPanics pins the one-transmission-per-step rule: a
// second Broadcast in one Init or Step call panics on both engines, with
// and without jitter.
func TestSecondBroadcastPanics(t *testing.T) {
	g := line(6)
	for _, eng := range []simnet.Engine{simnet.EngineSerial, simnet.EngineParallel} {
		for _, jitter := range []int{0, 2} {
			for _, atInit := range []bool{true, false} {
				label := fmt.Sprintf("%v/jitter=%d/atInit=%v", eng, jitter, atInit)
				build := func() []simnet.Program {
					ps := make([]simnet.Program, g.N())
					for i := range ps {
						ps[i] = twiceProgram{atInit: atInit}
					}
					return ps
				}
				func() {
					defer func() {
						if r := recover(); !strings.Contains(fmt.Sprint(r), "broadcast twice") {
							t.Errorf("%s: recovered %v, want the second-broadcast panic", label, r)
						}
					}()
					_, _, _, _ = runEngine(t, g, build, eng, jitter, 0)
				}()
			}
		}
	}
}

// TestRecvCountedAtDeliveryJitter pins the receive-counter bugfix: receives
// are stamped when an envelope reaches an inbox, not when it is enqueued.
// Under jitter the two moments are rounds apart, so the per-node receive
// total must always equal the delivered total — on both engines.
func TestRecvCountedAtDeliveryJitter(t *testing.T) {
	g := line(8)
	build := func() []simnet.Program { return mixPrograms(g.N()) }
	for _, eng := range []simnet.Engine{simnet.EngineSerial, simnet.EngineParallel} {
		_, stats, rounds, err := runEngine(t, g, build, eng, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		recv, delivered := 0, 0
		for _, c := range stats.NodeRecv {
			recv += c
		}
		for _, r := range rounds {
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
	build := func() []simnet.Program { return mixPrograms(g.N()) }
	for _, eng := range []simnet.Engine{simnet.EngineSerial, simnet.EngineParallel} {
		_, stats, rounds, err := runEngine(t, g, build, eng, 3, 1)
		if !errors.Is(err, simnet.ErrRoundLimit) {
			t.Fatalf("%v: expected ErrRoundLimit, got %v", eng, err)
		}
		recv, delivered := 0, 0
		for _, c := range stats.NodeRecv {
			recv += c
		}
		for _, r := range rounds {
			delivered += r.Deliveries
		}
		if recv != delivered {
			t.Errorf("%v: NodeRecv total %d != delivered total %d at abort", eng, recv, delivered)
		}
		// With Jitter=3 most Init transmissions are still in flight after
		// round 1; if receives were counted at enqueue, recv would cover
		// every neighbor of every Init broadcast.
		sent := 0
		for _, r := range rounds {
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
	build := func() []simnet.Program { return mixPrograms(g.N()) }
	var def simnet.Engine
	_, stats, _, err := runEngine(t, g, build, def, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Engine != "parallel" {
		t.Errorf("zero-value engine on %d nodes ran %q, want parallel", g.N(), stats.Engine)
	}
	if _, _, _, err := runEngine(t, g, build, simnet.EngineSerial+1, 0, 0); err == nil {
		t.Error("out-of-range engine accepted")
	}
}
