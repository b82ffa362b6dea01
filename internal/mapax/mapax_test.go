package mapax_test

import (
	"testing"

	"bfskel/internal/boundary"
	"bfskel/internal/mapax"
	"bfskel/internal/nettest"
)

// TestExtractStar checks MAP's medial nodes lie medially: their mean
// geometric distance to the true boundary clearly exceeds the network-wide
// mean.
func TestExtractStar(t *testing.T) {
	net := nettest.Grid("star", 1394, 7, 1)
	b := boundary.Detect(net.Graph)
	res := mapax.Extract(net.Graph, b)
	if len(res.MedialNodes) == 0 {
		t.Fatal("no medial nodes")
	}

	var all, medial float64
	for v := 0; v < net.Graph.N(); v++ {
		all += net.Shape.Poly.BoundaryDist(net.Points[v])
	}
	all /= float64(net.Graph.N())
	for _, v := range res.MedialNodes {
		medial += net.Shape.Poly.BoundaryDist(net.Points[v])
	}
	medial /= float64(len(res.MedialNodes))
	t.Logf("medial nodes=%d, mean clearance %.2f vs network %.2f", len(res.MedialNodes), medial, all)
	if medial < 1.3*all {
		t.Errorf("medial mean clearance %.2f not clearly above network mean %.2f", medial, all)
	}
	if res.Skeleton.NumNodes() == 0 {
		t.Error("empty skeleton structure")
	}
}

// TestNoiseSensitivity reproduces MAP's defining weakness: flipping a few
// interior nodes into fake boundary nodes (boundary noise) inflates the
// medial set, because every noisy node forms a fresh one-node "cycle" that
// trivially passes the different-cycle test.
func TestNoiseSensitivity(t *testing.T) {
	net := nettest.Grid("star", 1394, 7, 1)
	clean := boundary.Detect(net.Graph)
	base := mapax.Extract(net.Graph, clean)

	noisy := boundary.Detect(net.Graph)
	// Promote a few interior nodes to boundary status.
	added := 0
	for v := 0; v < net.Graph.N() && added < 8; v++ {
		if !noisy.IsBoundary[v] && net.Shape.Poly.BoundaryDist(net.Points[v]) > 8 {
			noisy.IsBoundary[v] = true
			noisy.Nodes = append(noisy.Nodes, int32(v))
			noisy.Cycles = append(noisy.Cycles, []int32{int32(v)})
			added++
		}
	}
	perturbed := mapax.Extract(net.Graph, noisy)
	t.Logf("medial nodes: clean=%d noisy=%d", len(base.MedialNodes), len(perturbed.MedialNodes))
	if len(perturbed.MedialNodes) <= len(base.MedialNodes) {
		t.Errorf("boundary noise did not inflate MAP's medial set (%d <= %d)",
			len(perturbed.MedialNodes), len(base.MedialNodes))
	}
}
