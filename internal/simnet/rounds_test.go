package simnet_test

import (
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
	"bfskel/internal/simnet"
)

// star builds a hub-and-spokes graph: node 0 adjacent to all others.
func star(n int) *graph.Graph {
	b := graph.New(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	g := b.Freeze()
	return g
}

// round is one "round" trace event: the round index and its counts.
type round struct{ Round, Messages, Deliveries, Active int }

// traceRounds points sim's span at a fresh ring sink and returns a reader
// of the "round" events recorded there, in emission order.
func traceRounds(sim *simnet.Sim) func() []round {
	ring := obs.NewRingSink(0)
	sim.Span = obs.NewTracer(ring).StartSpan("sim")
	return func() []round {
		var out []round
		for _, rec := range ring.Records() {
			if rec.Kind != obs.KindEvent || rec.Name != "round" {
				continue
			}
			var r round
			for _, a := range rec.Attrs {
				v := a.Val.(int)
				switch a.Key {
				case "round":
					r.Round = v
				case "messages":
					r.Messages = v
				case "deliveries":
					r.Deliveries = v
				case "active":
					r.Active = v
				}
			}
			out = append(out, r)
		}
		return out
	}
}

// TestPerRoundAccounting pins the per-round counters of the "round" trace
// events: one event per round including Init, numbered in order, whose
// message counts sum exactly to Stats.Messages; with RecordPerNode set the
// per-node send counters sum to it too, and the per-node receive counters
// sum to the events' deliveries.
func TestPerRoundAccounting(t *testing.T) {
	const n = 12
	g := line(n)
	nodes := make([]*relay, n)
	programs := make([]simnet.Program, n)
	for i := range nodes {
		nodes[i] = &relay{start: i == 0}
		programs[i] = nodes[i]
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	rounds := traceRounds(sim)
	sim.RecordPerNode = true
	stats, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	perRound := rounds()
	if len(perRound) != stats.Rounds+1 {
		t.Fatalf("%d round events, want rounds+1 = %d", len(perRound), stats.Rounds+1)
	}
	msgs, deliveries := 0, 0
	for i, r := range perRound {
		if r.Round != i {
			t.Errorf("round event %d has round = %d", i, r.Round)
		}
		msgs += r.Messages
		deliveries += r.Deliveries
	}
	if msgs != stats.Messages {
		t.Errorf("per-round messages sum to %d, Stats.Messages = %d", msgs, stats.Messages)
	}
	sent, recv := 0, 0
	for _, s := range stats.NodeSent {
		sent += s
	}
	for _, r := range stats.NodeRecv {
		recv += r
	}
	if sent != stats.Messages {
		t.Errorf("NodeSent sums to %d, Stats.Messages = %d", sent, stats.Messages)
	}
	if recv != deliveries {
		t.Errorf("NodeRecv sums to %d, per-round deliveries = %d", recv, deliveries)
	}
}

// TestBroadcastCountsOneTransmission pins the paper's message accounting: a
// wireless broadcast is one transmission regardless of how many neighbors
// hear it, i.e. one per active node per round.
func TestBroadcastCountsOneTransmission(t *testing.T) {
	const n = 6
	g := star(n)
	nodes := make([]*echoOnce, n)
	programs := make([]simnet.Program, n)
	for i := range nodes {
		nodes[i] = &echoOnce{}
		programs[i] = nodes[i]
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	rounds := traceRounds(sim)
	sim.RecordPerNode = true
	stats, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every node broadcast exactly once (at Init): n transmissions total,
	// even though the hub alone reaches n-1 listeners.
	if stats.Messages != n {
		t.Fatalf("Messages = %d, want %d (one per broadcasting node)", stats.Messages, n)
	}
	if r := rounds()[0]; r.Messages != n {
		t.Errorf("round 0 messages = %d, want %d", r.Messages, n)
	}
	for v, s := range stats.NodeSent {
		if s != 1 {
			t.Errorf("NodeSent[%d] = %d, want 1", v, s)
		}
	}
	// The hub hears every spoke; each spoke hears only the hub.
	if stats.NodeRecv[0] != n-1 {
		t.Errorf("hub received %d, want %d", stats.NodeRecv[0], n-1)
	}
	for v := 1; v < n; v++ {
		if stats.NodeRecv[v] != 1 {
			t.Errorf("spoke %d received %d, want 1", v, stats.NodeRecv[v])
		}
	}
}
