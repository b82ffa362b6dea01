package bfskel

import (
	"fmt"
	"runtime"
	"time"

	"bfskel/internal/skeleton"
)

// ChurnRow is one churn rate's throughput row (see RunChurnBench).
type ChurnRow = skeleton.ChurnRow

// ChurnHistBounds exposes the dirty-fraction histogram bucket bounds of
// ChurnRow.DirtyHist.
var ChurnHistBounds = skeleton.ChurnHistBounds

// ChurnBenchConfig parameterises a churn-throughput run.
type ChurnBenchConfig struct {
	// Shape names the deployment field (default "window").
	Shape string
	// N is the requested node count (default 100000).
	N int
	// TargetDeg is the calibrated average degree (default 7).
	TargetDeg float64
	// Seed drives deployment, links and the churn schedule.
	Seed int64
	// Params are the extraction parameters; the zero value means
	// DefaultParams.
	Params Params
	// Rates are the churn fractions per batch, run in order; each rate
	// streams Batches updates of max(1, round(rate*N)) failures through
	// one ChurnSession.
	Rates []float64
	// Batches is the number of timed updates per rate (default 20).
	Batches int
	// Warmup is the number of untimed steady-state updates run per rate
	// before timing starts (default 2; negative disables). The first updates
	// after a session (re)start pay one-off costs — cold flood caches, first
	// tuple-array build — that sustained-throughput numbers should not carry.
	Warmup int
}

// churnLCG is the deterministic node picker behind the churn schedule.
type churnLCG struct{ state uint64 }

func (c *churnLCG) next(n int) int {
	c.state = c.state*6364136223846793005 + 1442695040888963407
	return int((c.state >> 33) % uint64(n))
}

// RunChurnBench measures sustained incremental-update throughput: it builds
// one field, times from-scratch extraction as the baseline, then per rate
// streams steady-state churn batches (each update fails a fresh batch and
// recovers the previous one, so the dead population stays ~one batch)
// through a ChurnSession, recording updates/sec, fallbacks and the
// dirty-fraction histogram. Every rate starts from the pristine field.
func RunChurnBench(cfg ChurnBenchConfig) ([]ChurnRow, error) {
	if cfg.Shape == "" {
		cfg.Shape = "window"
	}
	if cfg.N == 0 {
		cfg.N = 100000
	}
	if cfg.TargetDeg == 0 {
		cfg.TargetDeg = 7
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 20
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 2
	} else if cfg.Warmup < 0 {
		cfg.Warmup = 0
	}
	shape, err := ShapeByName(cfg.Shape)
	if err != nil {
		return nil, err
	}
	net, err := BuildNetwork(NetworkSpec{
		Shape: shape, N: cfg.N, TargetDeg: cfg.TargetDeg,
		Seed: cfg.Seed, Layout: LayoutGrid,
	})
	if err != nil {
		return nil, err
	}

	// Settle the heap before timing anything: earlier phases of a combined
	// run (e.g. the scale ladder) can leave allocator state that skews both
	// the baseline and the update means.
	runtime.GC()

	// From-scratch baseline: best of two pooled-engine runs, so the churn
	// speedups compare against a warmed engine, not a cold start.
	eng := net.Extractor()
	fullMs := 0.0
	for i := 0; i < 2; i++ {
		start := time.Now() //lint:allow determinism ChurnRow.FullExtractMs is wall-clock timing, not part of the result
		if _, err := eng.Extract(cfg.Params); err != nil {
			return nil, fmt.Errorf("baseline extract: %w", err)
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if i == 0 || ms < fullMs {
			fullMs = ms
		}
	}

	s, err := net.ChurnSession(cfg.Params)
	if err != nil {
		return nil, err
	}
	rows := make([]ChurnRow, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		row := ChurnRow{
			Shape: cfg.Shape, N: cfg.N, Nodes: net.N(), AvgDeg: net.AvgDegree(),
			Rate: rate, Batches: cfg.Batches, FullExtractMs: fullMs,
		}
		size := int(rate*float64(net.N()) + 0.5)
		if size < 1 {
			size = 1
		}
		row.BatchSize = size
		plan := &churnLCG{state: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(size)}
		pick := func() []int32 {
			seen := make(map[int32]bool, size)
			batch := make([]int32, 0, size)
			for guard := 0; len(batch) < size && guard < 100*size+1000; guard++ {
				v := int32(plan.next(net.N()))
				if s.Alive(v) && !seen[v] {
					seen[v] = true
					batch = append(batch, v)
				}
			}
			return batch
		}

		var prev []int32
		var total time.Duration
		row.DirtyHist = make([]int, len(ChurnHistBounds))
		for b := 0; b < cfg.Warmup && row.Err == ""; b++ {
			batch := pick()
			if _, err := s.Step(batch, prev); err != nil {
				row.Err = fmt.Sprintf("warmup %d: %v", b, err)
				break
			}
			prev = batch
		}
		for b := 0; b < cfg.Batches && row.Err == ""; b++ {
			batch := pick()
			start := time.Now() //lint:allow determinism ChurnRow update timings are wall-clock, not part of the result
			_, err := s.Step(batch, prev)
			dt := time.Since(start)
			if err != nil {
				row.Err = fmt.Sprintf("batch %d: %v", b, err)
				break
			}
			total += dt
			ms := float64(dt) / float64(time.Millisecond)
			row.MeanUpdateMs += ms
			if ms > row.MaxUpdateMs {
				row.MaxUpdateMs = ms
			}
			u := s.LastUpdate()
			if u.Fallback {
				row.Fallbacks++
			}
			row.MeanDirtyFrac += u.DirtyFraction
			for i, bound := range ChurnHistBounds {
				if u.DirtyFraction <= bound {
					row.DirtyHist[i]++
					break
				}
			}
			prev = batch
		}
		// Reset to the pristine field for the next rate (untimed).
		if _, err := s.Restore(prev); err != nil && row.Err == "" {
			row.Err = fmt.Sprintf("restore: %v", err)
		}
		if row.Err == "" {
			row.MeanUpdateMs /= float64(cfg.Batches)
			row.MeanDirtyFrac /= float64(cfg.Batches)
			if sec := total.Seconds(); sec > 0 {
				row.UpdatesPerSec = float64(cfg.Batches) / sec
			}
			if row.MeanUpdateMs > 0 {
				row.Speedup = row.FullExtractMs / row.MeanUpdateMs
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
