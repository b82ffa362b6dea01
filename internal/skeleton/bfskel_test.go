package skeleton

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"bfskel/internal/core"
	"bfskel/internal/nettest"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

// TestEngineKeptAfterGC holds a backend call that follows two collections
// to the warm call's allocation. A warm call reuses an idle engine and
// allocates only the result; a cold one also allocates the engine's
// n-sized scratch (ball matrix, flood scratch, walkers), which is what a
// sync.Pool of engines paid after two collections. On the 20k-node window
// field under go1.24.0 the cold call allocates 4.6 MiB and the warm one 2.0
// MiB, so the 10% allowance catches an engine dropped by the collector.
func TestEngineKeptAfterGC(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-node field")
	}
	if raceBuild {
		t.Skip("race instrumentation moves allocations to the heap")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := nettest.Grid("window", 20000, 7, 1).Graph
	b := &coreBackend{}
	measure := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := b.Extract(g, Params{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	cold, warm := measure(), measure()
	runtime.GC()
	runtime.GC()
	afterGC := measure()
	t.Logf("cold %.2f MiB, warm %.2f MiB, after two collections %.2f MiB", cold, warm, afterGC)
	if afterGC > 1.1*warm {
		t.Errorf("call after two collections allocates %.2f MiB, warm %.2f MiB: the idle engine was dropped", afterGC, warm)
	}
}

// TestBackendConcurrentCalls runs the backend from several goroutines at
// once: each call takes its own engine off the free list or makes one, and
// every result matches a direct engine run.
func TestBackendConcurrentCalls(t *testing.T) {
	g := nettest.Grid("window", 800, 7, 1).Graph
	want, err := core.NewExtractor(g).Extract(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b := &coreBackend{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				res, _, err := b.Extract(g, Params{})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(res.CellOf, want.CellOf) || !slices.Equal(res.Nodes, want.Skeleton.Nodes()) {
					t.Error("concurrent backend call differs from a direct engine run")
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(b.engines) == 0 || len(b.engines) > 4 {
		t.Errorf("%d idle engines after 4 concurrent callers", len(b.engines))
	}
}
