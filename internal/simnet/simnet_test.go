package simnet_test

import (
	"errors"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// echoOnce broadcasts a token at Init and records everything it hears.
type echoOnce struct {
	heard []int
}

func (p *echoOnce) Init(ctx *simnet.Context) {
	ctx.Broadcast(0, []uint64{uint64(ctx.ID())})
}

func (p *echoOnce) Step(_ *simnet.Context, inbox []simnet.Envelope) {
	for _, env := range inbox {
		p.heard = append(p.heard, int(env.Words[0]))
	}
}

// relay floods a token with a TTL.
type relay struct {
	start bool
	seen  bool
}

func (p *relay) Init(ctx *simnet.Context) {
	if p.start {
		p.seen = true
		ctx.Broadcast(0, []uint64{2})
	}
}

func (p *relay) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	if p.seen {
		return
	}
	p.seen = true
	if ttl := inbox[0].Words[0]; ttl > 0 {
		ctx.Broadcast(0, []uint64{ttl - 1})
	}
}

func line(n int) *graph.Graph {
	b := graph.New(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Freeze()
	return g
}

func TestProgramCountMismatch(t *testing.T) {
	g := line(3)
	if _, err := simnet.New(g, make([]simnet.Program, 2)); err == nil {
		t.Error("expected error for program count mismatch")
	}
}

func TestBroadcastDelivery(t *testing.T) {
	g := line(3)
	nodes := []*echoOnce{{}, {}, {}}
	programs := []simnet.Program{nodes[0], nodes[1], nodes[2]}
	sim, err := simnet.New(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// One broadcast per node = 3 transmissions.
	if stats.Messages != 3 {
		t.Errorf("messages = %d, want 3", stats.Messages)
	}
	if stats.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", stats.Rounds)
	}
	// The middle node hears both ends; the ends hear only the middle.
	if len(nodes[1].heard) != 2 {
		t.Errorf("middle heard %v", nodes[1].heard)
	}
	if len(nodes[0].heard) != 1 || nodes[0].heard[0] != 1 {
		t.Errorf("end heard %v", nodes[0].heard)
	}
}

func TestTTLFloodRounds(t *testing.T) {
	g := line(6)
	nodes := make([]*relay, 6)
	programs := make([]simnet.Program, 6)
	for i := range nodes {
		nodes[i] = &relay{start: i == 0}
		programs[i] = nodes[i]
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// TTL 2 from node 0 reaches nodes 0..3 (Init + two relays).
	for i, p := range nodes {
		want := i <= 3
		if p.seen != want {
			t.Errorf("node %d seen = %v, want %v", i, p.seen, want)
		}
	}
}

// chatter never quiesces: every node broadcasts one word every round.
type chatter struct{}

var chatterWords = []uint64{0}

func (chatter) Init(ctx *simnet.Context) { ctx.Broadcast(1, chatterWords) }
func (chatter) Step(ctx *simnet.Context, _ []simnet.Envelope) {
	ctx.Broadcast(1, chatterWords)
}

func TestRoundLimit(t *testing.T) {
	g := line(2)
	sim, err := simnet.New(g, []simnet.Program{chatter{}, chatter{}})
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxRounds = 10
	if _, err := sim.Run(); !errors.Is(err, simnet.ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
}

// TestJitterDeterminism: the same jitter seed reproduces the same run; a
// different seed generally changes the round count.
func TestJitterDeterminism(t *testing.T) {
	run := func(seed int64) simnet.Stats {
		g := line(12)
		nodes := make([]*relay, 12)
		programs := make([]simnet.Program, 12)
		for i := range nodes {
			nodes[i] = &relay{start: i == 0}
			programs[i] = nodes[i]
		}
		sim, err := simnet.New(g, programs)
		if err != nil {
			t.Fatal(err)
		}
		sim.Jitter, sim.JitterSeed = 3, seed
		stats, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(1), run(1)
	if a.Messages != b.Messages || a.Rounds != b.Rounds {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestJitterStretchesRounds: jitter can only delay quiescence.
func TestJitterStretchesRounds(t *testing.T) {
	build := func(jitter int) simnet.Stats {
		g := line(10)
		programs := make([]simnet.Program, 10)
		nodes := make([]*relay, 10)
		for i := range nodes {
			nodes[i] = &relay{start: i == 0}
			programs[i] = nodes[i]
		}
		sim, _ := simnet.New(g, programs)
		sim.Jitter, sim.JitterSeed = jitter, 7
		stats, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	if build(4).Rounds < build(0).Rounds {
		t.Error("jittered run finished before the synchronous one")
	}
}
