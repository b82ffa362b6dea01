package graph_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"bfskel/internal/nettest"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

// footprintBudget bounds the heap bytes per node a built graph retains
// (TestGraphFootprint).
const footprintBudget = 37.0

// TestGraphFootprint pins the heap bytes per node that a built 2^16-node
// window field retains once its build garbage is collected: the CSR offsets
// and targets plus the Z-curve batch order. The figure is deterministic
// for a toolchain (35.4 B/node under go1.24.0, the toolchain
// ALLOC_BASELINE.json records). The budget leaves about 4%: a per-node
// slice header (24 bytes, what the thawed adjacency lists cost) or one
// more per-node int32 array (4 bytes) fails it.
func TestGraphFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^16-node field")
	}
	if raceBuild {
		t.Skip("race instrumentation moves allocations to the heap")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := nettest.Grid("window", 1<<16, 7, 1).Graph
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / float64(g.N())
	runtime.KeepAlive(g)
	t.Logf("%d nodes, %d edges: %.1f B/node", g.N(), g.NumEdges(), perNode)
	if perNode > footprintBudget {
		t.Errorf("built graph retains %.1f B/node, budget %.0f", perNode, footprintBudget)
	}
}
