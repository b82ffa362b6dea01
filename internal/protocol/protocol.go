// Package protocol implements phases 1-2 of the skeleton extraction
// pipeline as true distributed node programs running on the simnet
// simulator: controlled flooding for K-hop neighborhood sizes, the
// L-centrality exchange, critical-skeleton-node election, and the Voronoi
// flooding from the elected sites (paper Secs. III-A and III-B).
//
// The programs use wireless set-broadcasts — each node transmits once per
// round with everything it learned in the previous round — which yields the
// paper's message complexity of O((k+l+1)n) transmissions and a running
// time of O(sqrt(n)) rounds for the Voronoi flood.
//
// Results are bit-identical to the centralized implementation in package
// core (the tests cross-check them), so the rest of the pipeline can run on
// either substrate.
package protocol

import (
	"fmt"

	"bfskel/internal/core"
	"bfskel/internal/graph"
	"bfskel/internal/obs"
	"bfskel/internal/simnet"
)

// PhaseNames lists the four protocol phases in execution order; trace spans
// are named "phase.<name>".
var PhaseNames = [4]string{"neighborhood", "centrality", "election", "voronoi"}

// Engine re-exports the simnet round-engine selector so callers configuring
// a protocol run do not need to import simnet directly.
type Engine = simnet.Engine

// Engine selector values; see simnet.Engine.
const (
	EngineParallel = simnet.EngineParallel
	EngineSerial   = simnet.EngineSerial
)

// Result carries the distributed computation's outputs plus the per-phase
// simulation statistics.
type Result struct {
	// KHop is |N_K(p)| per node.
	KHop []int
	// Cent and Index follow Defs. 3 and 4.
	Cent  []float64
	Index []float64
	// Sites are the elected critical skeleton nodes.
	Sites []int32
	// Records are the per-node almost-equidistant site records with
	// reverse-path parents.
	Records [][]core.SiteDist
	// PhaseStats holds the simulation counters of the four protocol
	// phases, in order: neighborhood, centrality, election, voronoi.
	PhaseStats [4]simnet.Stats
}

// TotalMessages sums the transmissions over all phases.
func (r *Result) TotalMessages() int {
	total := 0
	for _, s := range r.PhaseStats {
		total += s.Messages
	}
	return total
}

// TotalRounds sums the rounds over all phases.
func (r *Result) TotalRounds() int {
	total := 0
	for _, s := range r.PhaseStats {
		total += s.Rounds
	}
	return total
}

// Options configures a protocol run beyond the radii. The zero value runs
// synchronously, unobserved, on the parallel round engine.
type Options struct {
	// Jitter delays each transmission by a uniform 0..Jitter extra rounds;
	// Seed makes jittered runs reproducible (each phase derives its own
	// sub-seed). The protocols carry hop counters in their payloads with
	// minimum-hop re-forwarding, so their outputs stay exact; only the
	// message and round counts change. This probes the paper's informal
	// synchrony assumption ("the message travels at approximately the same
	// speed").
	Jitter int
	Seed   int64
	// Tracer, when non-nil, wraps the run in a "protocol" span with one
	// "phase.<name>" child span per phase carrying per-round events —
	// the phase → round breakdown behind the paper's complexity claims.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates per-phase message/round counters.
	Metrics *obs.Registry
	// RecordPerNode enables simnet per-node send/receive counters
	// (Result.PhaseStats[i].NodeSent/NodeRecv); with tracing on, each
	// phase span also carries a "nodes" event with the full counter
	// arrays, which cmd/skeltrace reduces to the hottest nodes.
	RecordPerNode bool
	// Engine selects the simnet round engine for every phase: the zero
	// value is the parallel engine, EngineSerial the reference engine the
	// parity tests check it against. Outputs and statistics are identical
	// either way — only cost differs.
	Engine Engine
}

// phaseOpts is the per-phase slice of Options handed to each phase runner.
type phaseOpts struct {
	jitter        int
	seed          int64
	span          *obs.Span
	recordPerNode bool
	engine        Engine
}

// configure applies the options to a freshly built simulator.
func (po phaseOpts) configure(sim *simnet.Sim) {
	sim.Jitter, sim.JitterSeed = po.jitter, po.seed
	sim.Span = po.span
	sim.RecordPerNode = po.recordPerNode
	sim.Engine = po.engine
}

// Run executes the four protocol phases on the graph. k, l and scope are
// the effective radii (pass the values the centralized pipeline resolved,
// e.g. Result.EffectiveK/EffectiveScope, to compare runs); alpha is the
// segment-node slack; opts sets jitter, observability and the round engine.
func Run(g *graph.Graph, k, l, scope int, alpha int32, opts Options) (*Result, error) {
	if k < 1 || l < 1 || scope < 1 {
		return nil, fmt.Errorf("protocol: radii must be >= 1 (k=%d l=%d scope=%d)", k, l, scope)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("protocol: alpha must be >= 0, got %d", alpha)
	}
	if opts.Jitter < 0 {
		return nil, fmt.Errorf("protocol: jitter must be >= 0, got %d", opts.Jitter)
	}
	if opts.Engine != EngineParallel && opts.Engine != EngineSerial {
		return nil, fmt.Errorf("protocol: unknown round engine %d", opts.Engine)
	}
	res := &Result{}
	root := opts.Tracer.StartSpan("protocol",
		obs.Int("nodes", g.N()), obs.Int("k", k), obs.Int("l", l),
		obs.Int("scope", scope), obs.Int("alpha", int(alpha)), obs.Int("jitter", opts.Jitter))

	// phase wraps one protocol phase: a "phase.<name>" child span during
	// the run, then stats bookkeeping into the result, trace and metrics.
	phase := func(i int, run func(po phaseOpts) (simnet.Stats, error)) error {
		name := PhaseNames[i]
		span := root.StartSpan("phase." + name)
		stats, err := run(phaseOpts{
			jitter:        opts.Jitter,
			seed:          opts.Seed + int64(i),
			span:          span,
			recordPerNode: opts.RecordPerNode,
			engine:        opts.Engine,
		})
		res.PhaseStats[i] = stats
		if err != nil {
			span.End(obs.Str("error", err.Error()))
			root.End(obs.Str("error", err.Error()))
			return fmt.Errorf("%s phase: %w", name, err)
		}
		if opts.RecordPerNode && stats.NodeSent != nil {
			span.Event("nodes", obs.Any("sent", stats.NodeSent), obs.Any("recv", stats.NodeRecv))
		}
		span.End(obs.Int("messages", stats.Messages), obs.Int("rounds", stats.Rounds),
			obs.Str("engine", stats.Engine))
		if m := opts.Metrics; m != nil {
			m.Counter(obs.Label("bfskel_protocol_messages_total", "phase", name)).Add(int64(stats.Messages))
			m.Counter(obs.Label("bfskel_protocol_rounds_total", "phase", name)).Add(int64(stats.Rounds))
		}
		return nil
	}

	err := phase(0, func(po phaseOpts) (simnet.Stats, error) {
		khop, stats, err := runNeighborhood(g, k, po)
		res.KHop = khop
		return stats, err
	})
	if err == nil {
		err = phase(1, func(po phaseOpts) (simnet.Stats, error) {
			cent, index, stats, err := runCentrality(g, l, res.KHop, po)
			res.Cent, res.Index = cent, index
			return stats, err
		})
	}
	if err == nil {
		err = phase(2, func(po phaseOpts) (simnet.Stats, error) {
			sites, stats, err := runElection(g, scope, res.Index, po)
			res.Sites = sites
			return stats, err
		})
	}
	if err == nil {
		err = phase(3, func(po phaseOpts) (simnet.Stats, error) {
			records, stats, err := runVoronoi(g, res.Sites, alpha, po)
			res.Records = records
			return stats, err
		})
	}
	if err != nil {
		return nil, err
	}
	root.End(obs.Int("messages", res.TotalMessages()), obs.Int("rounds", res.TotalRounds()))
	return res, nil
}
