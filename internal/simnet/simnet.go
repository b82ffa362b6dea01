// Package simnet is a synchronous round-based message-passing simulator for
// distributed node programs. Each sensor runs a Program; in every round all
// messages sent in the previous round are delivered, and each node with a
// non-empty inbox takes a step. The only message form is the wireless
// broadcast of a kind tag plus packed words, at most one per node per step.
// The simulator counts messages and rounds, which backs the complexity
// measurements of paper Sec. V-A (message complexity O((k+l+1)n), time
// complexity O(sqrt(n))).
//
// Two round engines execute the same Program/Context contract (see Engine):
// a straightforward serial reference engine, and an allocation-free engine
// that steps the touched nodes in parallel chunks and merges their send
// queues deterministically. Every observable number — Stats.Messages,
// Rounds, the round events, per-node counters, inbox contents and order —
// is bit-identical between the two.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"bfskel/internal/graph"
	"bfskel/internal/obs"
)

// ErrRoundLimit is returned when a simulation does not quiesce within the
// configured round budget.
var ErrRoundLimit = errors.New("simnet: round limit exceeded")

// errEngine rejects a Sim.Engine value naming neither round engine.
var errEngine = errors.New("simnet: unknown round engine")

// Envelope is a delivered message: one broadcast's protocol-defined kind
// tag and packed words. Envelopes and their words are engine-owned: they
// are valid only for the duration of the Step call that receives them.
type Envelope struct {
	// From is the sending node's ID.
	From int
	// Kind is the protocol-defined message type.
	Kind uint8
	// Words is the message body. All receivers of one broadcast share
	// views of one engine-owned copy; they must not retain or modify it.
	Words []uint64
}

// errSecondBroadcast is the panic value of a second Broadcast in one Init
// or Step call. A sentinel keeps the guard allocation-free.
var errSecondBroadcast = errors.New("simnet: node broadcast twice in one step")

// Context is handed to a Program during Init and Step; it exposes the node's
// identity, its neighbor list, and the broadcast primitive.
type Context struct {
	sim  *Sim
	node int
	// sent records a Broadcast during the current Init or Step call.
	sent bool
	// w is the parallel engine's per-chunk send queue; nil while the serial
	// engine is stepping, in which case broadcasts deliver immediately.
	w *parWorker
}

// at points the context at node v for one Init or Step call.
func (c *Context) at(v int) { c.node, c.sent = v, false }

// ID returns the node's ID.
func (c *Context) ID() int { return c.node }

// Neighbors returns the node's neighbor IDs. The slice is shared and must
// not be modified.
func (c *Context) Neighbors() []int32 { return c.sim.g.Neighbors(c.node) }

// Degree returns the node's degree.
func (c *Context) Degree() int { return c.sim.g.Degree(c.node) }

// Broadcast queues a message — a protocol-defined kind tag plus packed
// words — to every neighbor as a single wireless transmission: it counts
// one message regardless of the neighbor count, matching the paper's
// accounting (one flooding retransmission = one message), under which
// skeleton extraction costs O((k+l+1)n) messages. The engine copies the
// words before returning, so the caller may reuse the backing slice
// immediately (the idiom is a per-program scratch buffer refilled every
// Step).
//
// A node transmits at most once per Init or Step call, so a program
// batches everything it learned in a step into one broadcast; a second
// call is a protocol bug and panics.
func (c *Context) Broadcast(kind uint8, words []uint64) {
	if c.sent {
		panic(errSecondBroadcast)
	}
	c.sent = true
	if c.sim.g.Degree(c.node) == 0 {
		return
	}
	if c.w != nil {
		c.w.push(int32(c.node), kind, words)
	} else {
		env := Envelope{From: c.node, Kind: kind, Words: append([]uint64(nil), words...)}
		for _, v := range c.sim.g.Neighbors(c.node) {
			c.sim.deliver(int(v), env)
		}
		c.sim.stats.Messages++
	}
	c.sim.noteSent(c.node)
}

// Program is a per-node protocol state machine.
type Program interface {
	// Init runs once, before round 1; the node may broadcast once.
	Init(ctx *Context)
	// Step runs whenever the node has incoming messages; inbox holds all
	// messages delivered this round, in deterministic order (by send
	// round, then ascending sender). The node may broadcast once. The inbox
	// and its words are engine-owned scratch, valid only until Step returns.
	Step(ctx *Context, inbox []Envelope)
}

// Stats summarises a finished simulation.
type Stats struct {
	// Rounds is the number of synchronous rounds until quiescence.
	Rounds int
	// Messages is the total number of node-to-node messages delivered.
	Messages int
	// Engine names the round engine that executed the run ("parallel" or
	// "serial").
	Engine string `json:",omitempty"`

	// NodeSent and NodeRecv count per-node transmissions and received
	// envelopes when Sim.RecordPerNode was set; nil otherwise. A broadcast
	// counts one send for the transmitter and one receive per neighbor.
	// Receives are counted when the envelope is handed to the inbox, so
	// messages still in flight at an ErrRoundLimit abort are not included.
	NodeSent []int `json:",omitempty"`
	NodeRecv []int `json:",omitempty"`
}

// Sim drives a set of Programs over a connectivity graph.
type Sim struct {
	g        *graph.Graph
	programs []Program
	round    int
	rng      *rand.Rand
	stats    Stats

	// Serial-engine delivery state.
	inboxes  [][]Envelope
	pending  map[int][]delivery
	inFlight int

	// MaxRounds bounds the simulation; 0 means 4*N + 64 rounds, generous
	// for any flood-based protocol on a connected graph.
	MaxRounds int
	// Jitter adds a uniform 0..Jitter extra rounds of delay to every
	// message, breaking the synchrony assumption ("messages travel at
	// approximately the same speed", Sec. III-B): protocols that carry hop
	// counters in their payloads must stay correct regardless. 0 keeps the
	// simulation synchronous.
	Jitter int
	// JitterSeed makes jittered runs reproducible.
	JitterSeed int64
	// Engine selects the round engine (EngineParallel, the zero value, or
	// the EngineSerial reference). Outputs and statistics are identical
	// either way.
	Engine Engine

	// RecordPerNode enables per-node send/receive counters into
	// Stats.NodeSent / Stats.NodeRecv.
	RecordPerNode bool
	// Span, when recording, receives one "round" trace event per executed
	// round (round 0 covers Init) with its "messages" (transmissions
	// initiated; they sum to Stats.Messages), "deliveries" (envelopes
	// handed to inboxes) and "active" (nodes stepped) counts — the
	// round-by-round curve behind the paper's O(sqrt(n)) claim.
	Span *obs.Span
}

// delivery is an in-flight message with its destination.
type delivery struct {
	to  int
	env Envelope
}

// New creates a simulator. programs must have exactly one entry per graph
// node.
func New(g *graph.Graph, programs []Program) (*Sim, error) {
	if len(programs) != g.N() {
		return nil, fmt.Errorf("simnet: %d programs for %d nodes", len(programs), g.N())
	}
	return &Sim{g: g, programs: programs}, nil
}

// noteSent and noteRecv feed the optional per-node counters.
func (s *Sim) noteSent(from int) {
	if s.stats.NodeSent != nil {
		s.stats.NodeSent[from]++
	}
}

func (s *Sim) noteRecv(to int) {
	if s.stats.NodeRecv != nil {
		s.stats.NodeRecv[to]++
	}
}

// ensureRNG lazily builds the shared jitter source.
func (s *Sim) ensureRNG() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.JitterSeed)) //lint:allow determinism seeded from JitterSeed; same seed, same jitter
	}
	return s.rng
}

// deliver queues a message on the serial engine, without touching the
// transmission counter. With jitter enabled the arrival is delayed by
// 0..Jitter extra rounds.
func (s *Sim) deliver(to int, env Envelope) {
	arrival := s.round + 1
	if s.Jitter > 0 {
		arrival += s.ensureRNG().Intn(s.Jitter + 1)
	}
	s.pending[arrival] = append(s.pending[arrival], delivery{to: to, env: env})
	s.inFlight++
}

// Run executes Init on every node and then rounds until no messages are in
// flight (quiescence) or the round budget is exhausted. An Engine value
// naming neither engine is an error.
func (s *Sim) Run() (Stats, error) {
	if s.Engine != EngineParallel && s.Engine != EngineSerial {
		return Stats{}, errEngine
	}
	limit := s.MaxRounds
	if limit <= 0 {
		limit = 4*s.g.N() + 64
	}
	s.round = 0
	if s.RecordPerNode {
		s.stats.NodeSent = make([]int, s.g.N())
		s.stats.NodeRecv = make([]int, s.g.N())
	}
	s.stats.Engine = s.Engine.String()
	if s.Engine == EngineParallel {
		return s.runParallel(limit)
	}
	return s.runSerial(limit)
}

// runSerial is the reference engine: one node at a time, immediate
// (round-buffered) delivery through a pending map.
func (s *Sim) runSerial(limit int) (Stats, error) {
	if s.inboxes == nil {
		s.inboxes = make([][]Envelope, s.g.N())
	}
	if s.pending == nil {
		s.pending = make(map[int][]delivery)
	}
	record := s.Span.Enabled()
	sent := s.stats.Messages
	// One Context for the whole run: the pointer escapes into the Program
	// interface calls, so a per-node Context would heap-allocate per step.
	ctx := Context{sim: s}
	for v := range s.programs {
		ctx.at(v)
		s.programs[v].Init(&ctx)
	}
	if record {
		s.noteRound(0, s.stats.Messages-sent, 0, len(s.programs))
	}
	for {
		if s.inFlight == 0 {
			s.stats.Rounds = s.round
			return s.stats, nil
		}
		s.round++
		if s.round > limit {
			return s.stats, ErrRoundLimit
		}
		arrivals := s.pending[s.round]
		delete(s.pending, s.round)
		s.inFlight -= len(arrivals)
		touched := s.distribute(arrivals)
		sent = s.stats.Messages
		for _, v := range touched {
			ctx.at(v)
			s.programs[v].Step(&ctx, s.inboxes[v])
			s.inboxes[v] = s.inboxes[v][:0]
		}
		if record {
			s.noteRound(s.round, s.stats.Messages-sent, len(arrivals), len(touched))
		}
	}
}

// noteRound emits one round's accounting as a "round" event on the trace
// span.
func (s *Sim) noteRound(round, messages, deliveries, active int) {
	s.Span.Event("round",
		obs.Int("round", round), obs.Int("messages", messages),
		obs.Int("deliveries", deliveries), obs.Int("active", active))
}

// distribute hands this round's arrivals to their inboxes and returns the
// receiving node IDs in ascending order (deterministic step order).
// Receives are counted here — at delivery into the inbox — rather than at
// enqueue time, so jittered in-flight messages are never stamped rounds
// early and an ErrRoundLimit abort does not count messages that were never
// delivered.
func (s *Sim) distribute(arrivals []delivery) []int {
	var touched []int
	for _, d := range arrivals {
		if len(s.inboxes[d.to]) == 0 {
			touched = append(touched, d.to)
		}
		s.inboxes[d.to] = append(s.inboxes[d.to], d.env)
		s.noteRecv(d.to)
	}
	sort.Ints(touched)
	return touched
}

// Stats returns the counters accumulated so far.
func (s *Sim) Stats() Stats { return s.stats }
