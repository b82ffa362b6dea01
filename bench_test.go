package bfskel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bfskel/internal/graph"
)

// The benchmarks below regenerate every figure/claim of the paper's
// evaluation (see DESIGN.md's experiment index). Run them with
//
//	go test -bench=. -benchmem
//
// Each iteration performs the complete experiment — network construction,
// extraction, evaluation — so ns/op measures the cost of reproducing the
// figure, and the reported metrics (printed once per benchmark) are the
// measured counterparts of the paper's results.

// benchFigure runs one experiment per iteration and reports its rows once.
func benchFigure(b *testing.B, figure string) {
	b.Helper()
	var rows []ExperimentRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunFigure(figure, 1, ObsScope{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.Log(r.String())
	}
}

// BenchmarkFig1PipelineWindow reproduces Fig. 1: the full pipeline on the
// Window network (2592 nodes, avg.deg 5.96).
func BenchmarkFig1PipelineWindow(b *testing.B) { benchFigure(b, "fig1") }

// BenchmarkFig3ByProducts reproduces Fig. 3: the segmentation and boundary
// by-products of the Window run.
func BenchmarkFig3ByProducts(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig4Scenarios reproduces Fig. 4: the ten deployment fields with
// the paper's node counts and degrees.
func BenchmarkFig4Scenarios(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5Density reproduces Fig. 5: the Window density sweep
// (avg.deg 9.95-22.72) with stability vs. the Fig. 1 reference.
func BenchmarkFig5Density(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6QUDG reproduces Fig. 6: quasi-UDG (alpha=0.4, p=0.3) on the
// Window and Star fields.
func BenchmarkFig6QUDG(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7LogNormal reproduces Fig. 7: the log-normal shadowing sweep
// (epsilon 0-3) on the Window field.
func BenchmarkFig7LogNormal(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8Skewed reproduces Fig. 8: skewed nodal distributions on the
// Window (vertical density gradient) and Star (half-plane thinning) fields.
func BenchmarkFig8Skewed(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkComplexityScaling reproduces Sec. V-A: distributed message and
// round counts across network sizes, against the O((k+l+1)n) and O(sqrt(n))
// claims.
func BenchmarkComplexityScaling(b *testing.B) { benchFigure(b, "complexity") }

// BenchmarkParameterSensitivity reproduces Sec. V-B: k = l in 2..6 on the
// Window field.
func BenchmarkParameterSensitivity(b *testing.B) { benchFigure(b, "params") }

// BenchmarkBaselines reproduces the Sec. I/VI comparison: our boundary-free
// skeleton vs. MAP and CASE with detected boundaries, plus the
// boundary-noise sensitivity probe.
func BenchmarkBaselines(b *testing.B) { benchFigure(b, "baselines") }

// BenchmarkRoutingLoadBalance reproduces the motivating application:
// skeleton-aided routing vs. shortest paths (stretch and boundary load).
func BenchmarkRoutingLoadBalance(b *testing.B) { benchFigure(b, "routing") }

// BenchmarkAblation isolates the implementation's design knobs: Alpha,
// local-maximum scope, and pruning (DESIGN.md experiment index).
func BenchmarkAblation(b *testing.B) { benchFigure(b, "ablation") }

// BenchmarkExtract measures the core pipeline alone (no evaluation) across
// network sizes — the library's headline cost. It reuses one staged engine
// per size, the intended steady-state mode: scratch pools amortize and only
// per-result allocations remain.
func BenchmarkExtract(b *testing.B) {
	for _, n := range []int{648, 2592, 10368} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, err := BuildNetwork(NetworkSpec{
				Shape: MustShape("window"), N: n, TargetDeg: 7, Seed: 1, Layout: LayoutGrid,
			})
			if err != nil {
				b.Fatal(err)
			}
			x := net.ExtractorObs(ObsScope{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Extract(DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFloodKernels pins the two flood kernels against each other on the
// headline network: one all-sources ball-size pass at the pipeline's ball
// radius, per-source walker sweeps vs the bit-parallel MS-BFS kernel the
// pipeline runs. Both fill identical rows; the gap is the MS-BFS win in
// isolation.
func BenchmarkFloodKernels(b *testing.B) {
	p := DefaultParams()
	radius := max(p.K, p.L, p.Scope())
	for _, n := range []int{2592, 10368} {
		net, err := BuildNetwork(NetworkSpec{
			Shape: MustShape("window"), N: n, TargetDeg: 7, Seed: 1, Layout: LayoutGrid,
		})
		if err != nil {
			b.Fatal(err)
		}
		g := net.Graph
		rows := make([][]int, g.N())
		for v := range rows {
			rows[v] = make([]int, radius)
		}
		for _, kern := range []struct {
			name string
			k    graph.Kernel
		}{{"walker", graph.KernelWalker}, {"batched", graph.KernelBatched}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, kern.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g.BallSizesIntoKernel(kern.k, radius, rows, nil, nil)
				}
			})
		}
	}
}

// BenchmarkProtocolPhases measures the four distributed protocol phases
// (neighborhood, centrality, election, Voronoi) on the simnet substrate,
// pinning the serial reference engine against the allocation-free parallel
// arena engine on the same networks. Both produce bit-identical results
// (the engine-parity tests enforce it); the gap is pure simulator cost.
func BenchmarkProtocolPhases(b *testing.B) {
	for _, n := range []int{2592, 10368} {
		net, err := BuildNetwork(NetworkSpec{
			Shape: MustShape("window"), N: n, TargetDeg: 7, Seed: 1, Layout: LayoutGrid,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Extract(DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		k, l, scope, alpha := res.EffectiveK, res.Params.L, res.EffectiveScope, res.Params.Alpha
		for _, eng := range []SimEngine{SimEngineSerial, SimEngineParallel} {
			b.Run(fmt.Sprintf("n=%d/%v", n, eng), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := RunProtocolPhasesObs(net, k, l, scope, alpha,
						ProtocolOptions{Engine: eng}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExtractFresh measures the one-shot compatibility path: a
// throwaway engine per call, as net.Extract does. The gap to
// BenchmarkExtract is the cold-start cost the pooled engine saves.
func BenchmarkExtractFresh(b *testing.B) {
	for _, n := range []int{648, 2592, 10368} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, err := BuildNetwork(NetworkSpec{
				Shape: MustShape("window"), N: n, TargetDeg: 7, Seed: 1, Layout: LayoutGrid,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.Extract(DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildNetwork measures deployment plus graph realisation.
func BenchmarkBuildNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildNetwork(NetworkSpec{
			Shape: MustShape("window"), N: 2592, TargetDeg: 6, Seed: 1, Layout: LayoutGrid,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnStep measures single-node churn on the 10^5-node window
// field (grid layout, degree 7, seed 1): after two untimed warm-up updates,
// each timed update fails one fresh node and restores the previous one. It
// reports the from-scratch extraction time over the mean update time as
// "speedup"; CI holds that ratio at or above 5.
func BenchmarkChurnStep(b *testing.B) {
	net, err := BuildNetwork(NetworkSpec{
		Shape: MustShape("window"), N: 100000, TargetDeg: 7, Seed: 1, Layout: LayoutGrid,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	// Baseline: the faster of two runs of one pooled engine, so the ratio
	// compares against a warmed engine, not a cold start.
	x := net.ExtractorObs(ObsScope{})
	var extractMs float64
	for i := 0; i < 2; i++ {
		runtime.GC()
		res, err := x.Extract(p)
		if err != nil {
			b.Fatal(err)
		}
		if ms := float64(res.Stats.Total) / float64(time.Millisecond); i == 0 || ms < extractMs {
			extractMs = ms
		}
	}
	s, err := net.ChurnSessionObs(p, ObsScope{})
	if err != nil {
		b.Fatal(err)
	}
	// A seeded LCG (seed 1, batch size 1) picks the failing nodes, so the
	// stream is fixed.
	state, prev := uint64(0x9e3779b97f4a7c15+1), []int32(nil)
	step := func() error {
		var v int32
		for {
			state = state*6364136223846793005 + 1442695040888963407
			if v = int32((state >> 33) % uint64(net.N())); s.Alive(v) {
				break
			}
		}
		_, err := s.Step([]int32{v}, prev)
		prev = []int32{v}
		return err
	}
	for i := 0; i < 2; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("batch=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				b.Fatal(err)
			}
		}
		updateMs := float64(b.Elapsed()) / float64(b.N) / float64(time.Millisecond)
		b.ReportMetric(extractMs/updateMs, "speedup")
	})
}
