package segment_test

import (
	"testing"

	"bfskel/internal/boundary"
	"bfskel/internal/core"
	"bfskel/internal/nettest"
	"bfskel/internal/segment"
)

func extract(t *testing.T, shape string, n int, deg float64) (*nettest.Network, *core.Result) {
	t.Helper()
	net := nettest.Grid(shape, n, deg, 1)
	res, err := core.Extract(net.Graph, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return net, res
}

// TestMergeCellsCactus: the cactus decomposes into a handful of structural
// segments (trunk pieces and arms), each contiguous and non-trivial.
func TestMergeCellsCactus(t *testing.T) {
	net, res := extract(t, "cactus", 2172, 6.7)
	seg := segment.MergeCells(res, 9)
	if seg.NumSegments() < 3 || seg.NumSegments() > 10 {
		t.Errorf("segments = %d, want a handful for trunk+arms", seg.NumSegments())
	}
	sizes := seg.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
		if s < 20 {
			t.Errorf("trivially small segment of %d nodes", s)
		}
	}
	if total != net.Graph.N() {
		t.Errorf("assigned %d of %d nodes", total, net.Graph.N())
	}
	// Segments are connected node sets.
	for _, sink := range seg.Sinks {
		var members []int32
		for v, s := range seg.SegmentOf {
			if s == sink {
				members = append(members, int32(v))
			}
		}
		sub, _ := net.Graph.Subgraph(members)
		if !sub.IsConnected() {
			t.Errorf("segment %d is disconnected (%d members)", sink, len(members))
		}
	}
}

// TestMergeCellsRadiusMonotone: a larger merge radius cannot produce more
// segments.
func TestMergeCellsRadiusMonotone(t *testing.T) {
	_, res := extract(t, "window", 2000, 6)
	prev := 1 << 30
	for _, radius := range []int{3, 6, 9, 15} {
		n := segment.MergeCells(res, radius).NumSegments()
		if n > prev {
			t.Errorf("radius %d: %d segments > previous %d", radius, n, prev)
		}
		prev = n
	}
}

// TestFlowToSinks: the flow segmentation assigns every interior node and
// produces connected segments whose sinks lie medially.
func TestFlowToSinks(t *testing.T) {
	net := nettest.Grid("cactus", 2172, 6.7, 1)
	b := boundary.Detect(net.Graph)
	seg := segment.FlowToSinks(net.Graph, b.Nodes, 6)
	if seg.NumSegments() < 2 {
		t.Fatalf("segments = %d", seg.NumSegments())
	}
	assigned := 0
	for _, s := range seg.SegmentOf {
		if s >= 0 {
			assigned++
		}
	}
	if assigned < net.Graph.N()*95/100 {
		t.Errorf("assigned %d of %d", assigned, net.Graph.N())
	}
	// Sinks are far from the boundary (they are distance-transform maxima).
	var sinkClear, allClear float64
	for _, s := range seg.Sinks {
		sinkClear += net.Shape.Poly.BoundaryDist(net.Points[s])
	}
	sinkClear /= float64(len(seg.Sinks))
	for _, p := range net.Points {
		allClear += net.Shape.Poly.BoundaryDist(p)
	}
	allClear /= float64(net.Graph.N())
	if sinkClear < 1.5*allClear {
		t.Errorf("sink clearance %.2f not clearly medial (network %.2f)", sinkClear, allClear)
	}
}

// TestFlowMergeReducesSinks: sink merging absorbs shallow local maxima.
func TestFlowMergeReducesSinks(t *testing.T) {
	net := nettest.Grid("star", 1394, 6.59, 1)
	b := boundary.Detect(net.Graph)
	raw := segment.FlowToSinks(net.Graph, b.Nodes, 0)
	merged := segment.FlowToSinks(net.Graph, b.Nodes, 6)
	if merged.NumSegments() >= raw.NumSegments() {
		t.Errorf("merge did not reduce sinks: %d -> %d", raw.NumSegments(), merged.NumSegments())
	}
	// A star wants roughly one segment per arm plus a center.
	if merged.NumSegments() < 2 || merged.NumSegments() > 12 {
		t.Errorf("merged segments = %d", merged.NumSegments())
	}
}
