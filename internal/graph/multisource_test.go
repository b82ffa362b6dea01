package graph_test

import (
	"math/rand"
	"testing"

	"bfskel/internal/geom"
	"bfskel/internal/graph"
	"bfskel/internal/radio"
)

// TestMultiSourceRecordsBruteForce: for every node, the recorded sources
// are exactly those with true distance <= dmin + slack, with correct
// distances and valid reverse-path parents.
func TestMultiSourceRecordsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 250)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*30, rng.Float64()*30)
	}
	g := graph.Build(pts, radio.UDG{R: 4}, 1)
	sources := []int32{3, 77, 150, 200}
	const slack = 1

	dmin, records := g.MultiSourceRecords(sources, slack)

	// True distances per source.
	trueDist := make(map[int32][]int32, len(sources))
	for _, s := range sources {
		trueDist[s] = g.BFS(int(s))
	}
	for v := 0; v < g.N(); v++ {
		// dmin correctness.
		want := graph.Unreachable
		for _, s := range sources {
			d := trueDist[s][v]
			if d != graph.Unreachable && (want == graph.Unreachable || d < want) {
				want = d
			}
		}
		if dmin[v] != want {
			t.Fatalf("dmin[%d] = %d, want %d", v, dmin[v], want)
		}
		if want == graph.Unreachable {
			continue
		}
		// Record set correctness.
		got := make(map[int32]int32)
		for _, r := range records[v] {
			got[r.Source] = r.D
		}
		for _, s := range sources {
			d := trueDist[s][v]
			shouldRecord := d != graph.Unreachable && d <= want+slack
			rec, ok := got[s]
			if shouldRecord != ok {
				t.Fatalf("node %d source %d: recorded=%v, want %v (d=%d dmin=%d)", v, s, ok, shouldRecord, d, want)
			}
			if ok && rec != d {
				t.Fatalf("node %d source %d: recorded d=%d, true %d", v, s, rec, d)
			}
		}
		// Parent validity: the parent is an adjacent node one hop closer.
		for _, r := range records[v] {
			if r.D == 0 {
				continue
			}
			if !g.HasEdge(v, int(r.Parent)) {
				t.Fatalf("node %d: parent %d not adjacent", v, r.Parent)
			}
			if trueDist[r.Source][r.Parent] != r.D-1 {
				t.Fatalf("node %d: parent %d not one hop closer to %d", v, r.Parent, r.Source)
			}
		}
	}
}

func TestMultiSourceRecordsEdgeCases(t *testing.T) {
	b := graph.New(3)
	b.AddEdge(0, 1)
	g := b.Freeze()
	// No sources.
	dmin, records := g.MultiSourceRecords(nil, 1)
	for v := range dmin {
		if dmin[v] != graph.Unreachable || len(records[v]) != 0 {
			t.Fatalf("empty sources produced records at %d", v)
		}
	}
	// Duplicate sources are tolerated.
	dmin, records = g.MultiSourceRecords([]int32{0, 0}, 1)
	if dmin[0] != 0 || len(records[0]) != 1 {
		t.Errorf("duplicate source handling: dmin=%d records=%v", dmin[0], records[0])
	}
	// Unreachable node keeps no records.
	if len(records[2]) != 0 || dmin[2] != graph.Unreachable {
		t.Errorf("isolated node recorded: %v", records[2])
	}
}
