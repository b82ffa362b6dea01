package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"bfskel/internal/nettest"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

// Per-node allocation budgets of a 2^16-node extraction (see
// TestExtractionMemoryBudget).
const coldBudget, warmBudget = 245.0, 113.0

// budgetEngine returns an engine on the 2^16-node window field and a
// function measuring the heap bytes per node of one extraction on it, at
// GOMAXPROCS 1 (one walker) with the collector off, so scratch cannot be
// dropped mid-run. The caller runs the returned restore when done.
func budgetEngine(t *testing.T) (measure func() float64, restore func()) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a 2^16-node field")
	}
	if raceBuild {
		t.Skip("race instrumentation moves allocations to the heap")
	}
	procs := runtime.GOMAXPROCS(1)
	gcPercent := debug.SetGCPercent(-1)
	g := nettest.Grid("window", 1<<16, 7, 1).Graph
	n := float64(g.N())
	e := NewExtractor(g)
	measure = func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Extract(DefaultParams()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	return measure, func() {
		debug.SetGCPercent(gcPercent)
		runtime.GOMAXPROCS(procs)
	}
}

// TestExtractionMemoryBudget pins the heap bytes per node an extraction of
// a 2^16-node field allocates:
//   - cold, on a fresh engine: result arrays plus every n-sized engine
//     buffer (ball matrix, walker scratch, flood scratch);
//   - warm, on the same engine: the result arrays alone.
//
// Both figures are deterministic for a toolchain (240.7 and 107.5 B/node
// under go1.24.0, the toolchain ALLOC_BASELINE.json records). The budgets
// leave about 2% and 5%: an n-sized row-header array, an []int ball
// matrix or a third MS-BFS word per node adds 24, 16 or 8 bytes per node
// to the cold figure, so each of them fails it.
func TestExtractionMemoryBudget(t *testing.T) {
	measure, restore := budgetEngine(t)
	defer restore()
	cold, warm := measure(), measure()
	t.Logf("cold %.1f B/node, warm %.1f B/node", cold, warm)
	if cold > coldBudget {
		t.Errorf("cold extraction allocates %.1f B/node, budget %.0f", cold, coldBudget)
	}
	if warm > warmBudget {
		t.Errorf("warm extraction allocates %.1f B/node, budget %.0f", warm, warmBudget)
	}
}

// TestExtractionMemoryBudgetAfterGC holds a warm extraction that follows
// two collections to the warm budget: the engine keeps its walkers, so
// identify reallocates none of their n-sized scratch (a sync.Pool drops
// its items at the second collection).
func TestExtractionMemoryBudgetAfterGC(t *testing.T) {
	measure, restore := budgetEngine(t)
	defer restore()
	measure()
	measure()
	runtime.GC()
	runtime.GC()
	warm := measure()
	t.Logf("warm after two collections %.1f B/node", warm)
	if warm > warmBudget {
		t.Errorf("warm extraction after two collections allocates %.1f B/node, budget %.0f", warm, warmBudget)
	}
}
