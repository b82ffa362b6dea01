package protocol_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"bfskel/internal/core"
	"bfskel/internal/deploy"
	"bfskel/internal/graph"
	"bfskel/internal/obs"
	"bfskel/internal/protocol"
	"bfskel/internal/radio"
	"bfskel/internal/shapes"
)

// buildModelNetwork is buildNetwork parameterized by radio model: a
// jittered-grid deployment on the named shape, realised as UDG or QUDG and
// restricted to the largest component.
func buildModelNetwork(t testing.TB, shapeName string, n int, deg float64, seed int64, qudg bool) *graph.Graph {
	t.Helper()
	shape := shapes.MustByName(shapeName)
	spacing := math.Sqrt(shape.Poly.Area() / float64(n))
	pts := deploy.PerturbedGrid(shape.Poly, spacing, 0.45*spacing, seed)
	r := math.Sqrt(deg * shape.Poly.Area() / (math.Pi * float64(len(pts))))
	model := func(r float64) radio.Model {
		if qudg {
			return radio.QUDG{R: r, Alpha: 0.4, P: 0.3}
		}
		return radio.UDG{R: r}
	}
	for iter := 0; iter < 4; iter++ {
		g := graph.Build(pts, model(r), seed)
		if actual := g.AvgDegree(); actual > 0 {
			if math.Abs(actual-deg)/deg < 0.01 {
				break
			}
			r *= math.Sqrt(deg / actual)
		} else {
			r *= 1.5
		}
	}
	g := graph.Build(pts, model(r), seed)
	sub, _ := g.Subgraph(g.LargestComponent())
	return sub
}

// runWithEngine executes the full four-phase protocol on one engine with
// all statistics recorded; it also returns the run's "round" trace events,
// canonicalised.
func runWithEngine(t *testing.T, g *graph.Graph, jitter int, eng protocol.Engine) (*protocol.Result, []string) {
	t.Helper()
	params := core.DefaultParams()
	ring := obs.NewRingSink(0)
	res, err := protocol.Run(g, params.K, params.L, params.Scope(), params.Alpha, protocol.Options{
		Jitter: jitter, Seed: 5, Engine: eng,
		Tracer: obs.NewTracer(ring), RecordPerNode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rounds []string
	for _, rec := range ring.Records() {
		if rec.Kind == obs.KindEvent && rec.Name == "round" {
			rounds = append(rounds, rec.Canon())
		}
	}
	return res, rounds
}

// checkParity runs the protocol on the zero-value engine and on the serial
// reference engine and requires bit-identical results.
func checkParity(t *testing.T, g *graph.Graph, jitter int) {
	t.Helper()
	var def protocol.Engine
	parallel, parallelRounds := runWithEngine(t, g, jitter, def)
	serial, serialRounds := runWithEngine(t, g, jitter, protocol.EngineSerial)
	if !reflect.DeepEqual(serialRounds, parallelRounds) {
		t.Errorf("round events diverge: %d serial, %d parallel", len(serialRounds), len(parallelRounds))
	}
	for i := range serial.PhaseStats {
		if serial.PhaseStats[i].Engine != "serial" ||
			parallel.PhaseStats[i].Engine != "parallel" {
			t.Fatalf("phase %d: engines not as selected: %q vs %q", i,
				serial.PhaseStats[i].Engine, parallel.PhaseStats[i].Engine)
		}
		serial.PhaseStats[i].Engine, parallel.PhaseStats[i].Engine = "", ""
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial.PhaseStats {
			if !reflect.DeepEqual(serial.PhaseStats[i], parallel.PhaseStats[i]) {
				t.Errorf("phase %s stats diverge", protocol.PhaseNames[i])
			}
		}
		t.Fatal("serial and parallel engine results diverge")
	}
}

// TestEngineParity is the property test behind the engine contract: across
// deployment shapes, radio models, jitter settings and graph sizes down to
// a single node, the zero-value (parallel) engine and the serial reference
// engine must produce bit-identical protocol outputs — K-hop sizes,
// centralities, indices, elected sites, Voronoi records including parents
// — and identical statistics: message and round totals, per-round
// breakdowns and per-node counters.
func TestEngineParity(t *testing.T) {
	shapeNames := []string{"window", "smile", "star", "onehole", "flower"}
	for _, shapeName := range shapeNames {
		for _, qudg := range []bool{false, true} {
			for _, jitter := range []int{0, 2} {
				name := fmt.Sprintf("%s/qudg=%v/jitter=%d", shapeName, qudg, jitter)
				t.Run(name, func(t *testing.T) {
					checkParity(t, buildModelNetwork(t, shapeName, 700, 7, 11, qudg), jitter)
				})
			}
		}
	}
	// Small graphs, down to a single node: the parallel engine's chunking
	// and arena sizing must hold where there is little or nothing to split.
	for _, n := range []int{60, 200} {
		for _, jitter := range []int{0, 2} {
			t.Run(fmt.Sprintf("small/window/n=%d/jitter=%d", n, jitter), func(t *testing.T) {
				checkParity(t, buildModelNetwork(t, "window", n, 7, 11, false), jitter)
			})
		}
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("tiny/n=%d", n), func(t *testing.T) {
			b := graph.New(n)
			if n == 2 {
				b.AddEdge(0, 1)
			}
			g := b.Freeze()
			checkParity(t, g, 0)
		})
	}
}

// TestJitterSeedInvariance pins the protocol's jitter robustness end to
// end: the elected sites and the Voronoi cell structure must not depend on
// the jitter seed (message timing), matching the synchronous run exactly.
func TestJitterSeedInvariance(t *testing.T) {
	g := buildModelNetwork(t, "window", 900, 7, 11, false)
	params := core.DefaultParams()
	run := func(jitter int, seed int64) *protocol.Result {
		res, err := protocol.Run(g, params.K, params.L, params.Scope(), params.Alpha,
			protocol.Options{Jitter: jitter, Seed: seed, Engine: protocol.EngineParallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sync := run(0, 0)
	for _, seed := range []int64{1, 7, 42} {
		jittered := run(2, seed)
		if !reflect.DeepEqual(sync.KHop, jittered.KHop) {
			t.Fatalf("seed %d: K-hop sizes depend on jitter", seed)
		}
		if !reflect.DeepEqual(sync.Index, jittered.Index) {
			t.Fatalf("seed %d: indices depend on jitter", seed)
		}
		if !reflect.DeepEqual(sync.Sites, jittered.Sites) {
			t.Fatalf("seed %d: elected sites depend on jitter: %v vs %v",
				seed, sync.Sites, jittered.Sites)
		}
		for v := range sync.Records {
			if !sameRecordSet(sync.Records[v], jittered.Records[v]) {
				t.Fatalf("seed %d: node %d site records depend on jitter", seed, v)
			}
		}
	}
}
