package localsep

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"bfskel/internal/nettest"
)

// skelPrint flattens a result into a comparable string: separator set plus
// the full skeleton adjacency.
func skelPrint(res *Result) string {
	var sb []byte
	sb = append(sb, fmt.Sprintf("seps=%v\n", res.SeparatorNodes)...)
	for _, v := range res.Skeleton.Nodes() {
		nbrs := append([]int32(nil), res.Skeleton.Neighbors(v)...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		sb = append(sb, fmt.Sprintf("%d: %v\n", v, nbrs)...)
	}
	return string(sb)
}

func TestExtractFindsSkeleton(t *testing.T) {
	for _, shape := range []string{"window", "twoholes", "spiral"} {
		net := nettest.Grid(shape, 1500, 7.0, 1)
		res := Extract(net.Graph, Options{})
		if len(res.SeparatorNodes) == 0 {
			t.Errorf("%s: no separator nodes found", shape)
		}
		if res.Skeleton.NumNodes() == 0 {
			t.Errorf("%s: empty skeleton", shape)
		}
		for i := 1; i < len(res.SeparatorNodes); i++ {
			if res.SeparatorNodes[i-1] >= res.SeparatorNodes[i] {
				t.Fatalf("%s: SeparatorNodes not strictly sorted at %d", shape, i)
			}
		}
	}
}

func TestExtractDeterministicUnderParallelism(t *testing.T) {
	net := nettest.Grid("twoholes", 1500, 7.0, 1)
	want := skelPrint(Extract(net.Graph, Options{}))
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := skelPrint(Extract(net.Graph, Options{})); got != want {
		t.Error("result differs between GOMAXPROCS settings")
	}
}

// TestKernelEquivalence: the batched ball-growth pass reports exactly the
// per-node |N_R| of a single-source count.
func TestKernelEquivalence(t *testing.T) {
	net := nettest.Grid("window", 1500, 7.0, 1)
	res := Extract(net.Graph, Options{})
	for v, got := range res.BallSize {
		if want := net.Graph.KHopCount(v, res.Radius); got != want {
			t.Fatalf("BallSize[%d] = %d, want %d", v, got, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Radius != 4 || o.MinComp != 2 || o.PruneLen != 3 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.Fraction != 0.7 {
		t.Errorf("Fraction default = %v", o.Fraction)
	}
}
