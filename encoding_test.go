package bfskel

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNetworkRoundTrip: SaveNetwork + LoadNetwork restores the exact graph.
func TestNetworkRoundTrip(t *testing.T) {
	net := testNetwork(t, "smile", 1200, 7, 3)
	var buf bytes.Buffer
	if err := SaveNetwork(net, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != net.N() {
		t.Fatalf("N = %d, want %d", got.N(), net.N())
	}
	if got.Graph.NumEdges() != net.Graph.NumEdges() {
		t.Fatalf("edges = %d, want %d", got.Graph.NumEdges(), net.Graph.NumEdges())
	}
	for v := 0; v < net.N(); v++ {
		if got.Points[v] != net.Points[v] {
			t.Fatalf("point %d moved", v)
		}
		a, b := net.Graph.Neighbors(v), got.Graph.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("node %d adjacency differs", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency differs at %d", v, i)
			}
		}
	}
	// The restored network extracts the identical skeleton.
	want, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Skeleton.NumNodes() != want.Skeleton.NumNodes() ||
		res.Skeleton.CycleRank() != want.Skeleton.CycleRank() {
		t.Error("restored network extracts a different skeleton")
	}
}

// TestNetworkRoundTripModels: every radio model survives the round trip.
func TestNetworkRoundTripModels(t *testing.T) {
	for _, m := range []RadioModel{
		UDG{R: 3},
		QUDG{R: 3, Alpha: 0.4, P: 0.3},
		LogNormal{R: 3, Epsilon: 2},
	} {
		net, err := BuildNetwork(NetworkSpec{
			Shape: MustShape("star"), N: 400, Seed: 1, Layout: LayoutGrid, Radio: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveNetwork(net, &buf); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := LoadNetwork(&buf)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got.Radio.String() != net.Radio.String() {
			t.Errorf("radio %v restored as %v", net.Radio, got.Radio)
		}
	}
}

func TestLoadNetworkErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"shape":"nope","radio":{"kind":"udg","r":1},"points":[],"edges":[]}`,
		`{"shape":"star","radio":{"kind":"warp","r":1},"points":[],"edges":[]}`,
		`{"shape":"star","radio":{"kind":"udg","r":1},"points":[[0,0]],"edges":[[0,5]]}`,
		// A self-loop, then an edge listed twice (once per orientation).
		`{"shape":"star","radio":{"kind":"udg","r":1},"points":[[0,0],[1,0],[2,0]],"edges":[[0,1],[1,1]]}`,
		`{"shape":"star","radio":{"kind":"udg","r":1},"points":[[0,0],[1,0],[2,0]],"edges":[[0,1],[1,2],[1,0]]}`,
	}
	for i, c := range cases {
		if _, err := LoadNetwork(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

// TestWriteResultJSON: the export carries a consistent skeleton structure.
func TestWriteResultJSON(t *testing.T) {
	net := testNetwork(t, "onehole", 1200, 7, 1)
	res, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultJSON(net, res, &buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Sites         []int32    `json:"sites"`
		SkeletonNodes []int32    `json:"skeletonNodes"`
		SkeletonEdges [][2]int32 `json:"skeletonEdges"`
		CycleRank     int        `json:"cycleRank"`
		CellOf        []int32    `json:"cellOf"`
		Positions     [][2]float64
		Loops         []struct {
			Kind string `json:"kind"`
		} `json:"loops"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Sites) != len(res.Sites) {
		t.Errorf("sites = %d", len(out.Sites))
	}
	if len(out.SkeletonNodes) != res.Skeleton.NumNodes() {
		t.Errorf("skeleton nodes = %d", len(out.SkeletonNodes))
	}
	if len(out.SkeletonEdges) != res.Skeleton.NumEdges() {
		t.Errorf("skeleton edges = %d, want %d", len(out.SkeletonEdges), res.Skeleton.NumEdges())
	}
	if out.CycleRank != 1 {
		t.Errorf("cycle rank = %d", out.CycleRank)
	}
	if len(out.CellOf) != net.N() || len(out.Positions) != net.N() {
		t.Error("per-node arrays wrong length")
	}
	for _, l := range out.Loops {
		if l.Kind != "genuine" && l.Kind != "fake" {
			t.Errorf("loop kind %q", l.Kind)
		}
	}
	// Without a network, positions are omitted.
	buf.Reset()
	if err := WriteResultJSON(nil, res, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "positions") {
		t.Error("positions present without a network")
	}
}
