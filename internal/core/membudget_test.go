package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"bfskel/internal/nettest"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

// TestExtractionMemoryBudget pins the heap bytes per node an extraction of
// a 2^16-node field allocates at GOMAXPROCS 1 (one pooled walker), with the
// collector off so pooled scratch cannot be dropped mid-run:
//   - cold, on a fresh engine: result arrays plus every n-sized engine
//     buffer (ball matrix, walker scratch, flood scratch);
//   - warm, on the same engine: the result arrays alone.
//
// Both figures are deterministic for a toolchain (244.1 and 114.3 B/node
// under go1.24.0, the toolchain ALLOC_BASELINE.json records). The budgets
// leave about 2% and 5%: an n-sized row-header array, an []int ball
// matrix or a third MS-BFS word per node adds 24, 16 or 8 bytes per node
// to the cold figure, so each of them fails it.
func TestExtractionMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^16-node field")
	}
	if raceBuild {
		t.Skip("race instrumentation moves allocations to the heap")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := nettest.Grid("window", 1<<16, 7, 1).Graph
	n := float64(g.N())
	e := NewExtractor(g)
	perNode := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Extract(DefaultParams()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	cold, warm := perNode(), perNode()
	t.Logf("n=%.0f: cold %.1f B/node, warm %.1f B/node", n, cold, warm)
	const coldBudget, warmBudget = 250.0, 120.0
	if cold > coldBudget {
		t.Errorf("cold extraction allocates %.1f B/node, budget %.0f", cold, coldBudget)
	}
	if warm > warmBudget {
		t.Errorf("warm extraction allocates %.1f B/node, budget %.0f", warm, warmBudget)
	}
}
