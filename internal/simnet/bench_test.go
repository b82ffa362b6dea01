package simnet_test

import (
	"errors"
	"testing"

	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// grid builds a side x side 4-neighbor lattice — degree-4 nodes like a
// dense sensor deployment, without the deployment machinery.
func grid(side int) *graph.Graph {
	b := graph.New(side * side)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				b.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < side {
				b.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	g := b.Freeze()
	return g
}

// BenchmarkRoundEngine measures simulator delivery throughput with both
// engines: a 4096-node lattice where every node broadcasts one word every
// round (chatter), 32 saturated rounds per iteration, reported as
// deliveries per second.
func BenchmarkRoundEngine(b *testing.B) {
	g := grid(64)
	const rounds = 32
	for _, eng := range []simnet.Engine{simnet.EngineSerial, simnet.EngineParallel} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			deliveries := 0
			for i := 0; i < b.N; i++ {
				programs := make([]simnet.Program, g.N())
				for v := range programs {
					programs[v] = chatter{}
				}
				sim, err := simnet.New(g, programs)
				if err != nil {
					b.Fatal(err)
				}
				sim.Engine = eng
				sim.MaxRounds = rounds
				rounds := traceRounds(sim)
				_, err = sim.Run()
				if !errors.Is(err, simnet.ErrRoundLimit) {
					b.Fatalf("expected round-limit stop, got %v", err)
				}
				for _, r := range rounds() {
					deliveries += r.Deliveries
				}
			}
			b.ReportMetric(float64(deliveries)/b.Elapsed().Seconds(), "deliveries/s")
		})
	}
}
