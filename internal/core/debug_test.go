package core

import (
	"testing"

	"bfskel/internal/nettest"
)

// TestDebugStarLoops prints, for the star field, each cycle the refiner
// examined and its verdict. Run with -v to inspect.
func TestDebugStarLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("debug diagnostics")
	}
	g := nettest.Grid("star", 1394, 6.59, 1).Graph
	p := DefaultParams()
	x := NewExtractor(g)
	_, _, index, sites, _, _ := x.identify(p, nil)
	cellOf, _, records := x.voronoi(sites, p.Alpha, nil)
	edges, coarseSkel := x.coarse(index, records, nil)
	t.Logf("sites=%d edges=%d coarse rank=%d", len(sites), len(edges), coarseSkel.CycleRank())

	w := x.newRefiner(p, index, records, cellOf)
	for _, e := range edges {
		w.edges = append(w.edges, wEdge{
			a: e.Pair.A, b: e.Pair.B, path: e.Path,
			connector: e.Connector, ends: e.EndNodes, segs: e.SegmentCount,
		})
	}
	w.dropRedundantParallels()
	w.debugf = t.Logf
	w.classifyLoops()
	skel := w.build()
	t.Logf("final rank=%d comps=%d", skel.CycleRank(), skel.Components())
}
