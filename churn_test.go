package bfskel

import (
	"fmt"
	"strings"
	"testing"

	"bfskel/internal/core"
)

// TestChurnSessionFailDisk: a failure disk streamed through a ChurnSession
// patches the skeleton in place — the result matches a from-scratch
// extraction on the overlayed graph, IDs stay stable, and restoring the
// disk returns the network to its pre-failure skeleton.
func TestChurnSessionFailDisk(t *testing.T) {
	net := testNetwork(t, "onehole", 2500, 7, 1)
	p := DefaultParams()
	s, err := net.ChurnSessionObs(p, ObsScope{})
	if err != nil {
		t.Fatal(err)
	}
	seed := s.Result()
	preRank := seed.Skeleton.CycleRank()

	failed, res, err := s.FailDisk(Point{X: 80, Y: 20}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) < 30 {
		t.Fatalf("only %d nodes in the failure disk", len(failed))
	}
	for _, v := range failed {
		if s.Alive(v) {
			t.Fatalf("node %d still alive after FailDisk", v)
		}
	}
	if got := res.Skeleton.CycleRank(); got != preRank+1 {
		t.Errorf("post-failure rank = %d, want %d (hole grew a loop)", got, preRank+1)
	}
	// The patched result must equal a from-scratch extraction on the same
	// overlayed graph.
	want, err := core.Extract(net.Graph, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skeleton.CycleRank() != want.Skeleton.CycleRank() ||
		res.Skeleton.NumNodes() != want.Skeleton.NumNodes() {
		t.Fatalf("patched skeleton (%d nodes, rank %d) != from-scratch (%d nodes, rank %d)",
			res.Skeleton.NumNodes(), res.Skeleton.CycleRank(),
			want.Skeleton.NumNodes(), want.Skeleton.CycleRank())
	}

	// Restoring the disk returns to the pre-failure skeleton.
	back, err := s.Restore(failed)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Skeleton.CycleRank(); got != preRank {
		t.Errorf("post-restore rank = %d, want %d", got, preRank)
	}
	if u := s.LastUpdate(); u.Revived != len(failed) {
		t.Errorf("LastUpdate.Revived = %d, want %d", u.Revived, len(failed))
	}
}

// TestChurnSessionRejectsOutOfRangeIDs: an ID outside [0, N) fails the
// update with an error naming it, before the overlay changes, and the
// session keeps working afterwards.
func TestChurnSessionRejectsOutOfRangeIDs(t *testing.T) {
	net := testNetwork(t, "window", 900, 7, 3)
	s, err := net.ChurnSessionObs(DefaultParams(), ObsScope{})
	if err != nil {
		t.Fatal(err)
	}
	before := fingerprint(s.Result())
	bad := int32(net.N()) + 10
	for _, tc := range []struct {
		name          string
		fail, restore []int32
		id            int32
	}{
		{"fail past N", []int32{4, bad}, nil, bad},
		{"restore negative", nil, []int32{-1}, -1},
		{"restore past N after a valid fail", []int32{4}, []int32{bad}, bad},
	} {
		_, err := s.Step(tc.fail, tc.restore)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if want := fmt.Sprint(tc.id); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name ID %s", tc.name, err, want)
		}
		if !s.Alive(4) || net.Graph.AliveCount() != net.N() {
			t.Fatalf("%s: the rejected batch changed the overlay", tc.name)
		}
		if got := fingerprint(s.Result()); got != before {
			t.Fatalf("%s: the rejected batch changed the result", tc.name)
		}
	}
	res, err := s.Fail([]int32{4})
	if err != nil {
		t.Fatalf("session unusable after rejected batches: %v", err)
	}
	want, err := core.Extract(net.Graph, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Fatal("update after rejected batches differs from a from-scratch extraction")
	}
}

// TestChurnSessionRepeatedIDs: an ID repeated within one batch flips once
// and counts once, and the result still equals a from-scratch extraction.
func TestChurnSessionRepeatedIDs(t *testing.T) {
	net := testNetwork(t, "window", 900, 7, 3)
	p := DefaultParams()
	s, err := net.ChurnSessionObs(p, ObsScope{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, res *Result, removed, revived int) {
		t.Helper()
		if u := s.LastUpdate(); u.Removed != removed || u.Revived != revived {
			t.Fatalf("%s: Removed/Revived = %d/%d, want %d/%d", step, u.Removed, u.Revived, removed, revived)
		}
		want, err := core.Extract(net.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(res) != fingerprint(want) {
			t.Fatalf("%s: result differs from a from-scratch extraction", step)
		}
	}
	res, err := s.Fail([]int32{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	check("fail 5,5", res, 1, 0)
	res, err = s.Step([]int32{9, 12, 9}, []int32{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	check("fail 9,12,9 restore 5,5", res, 2, 1)
	res, err = s.Step([]int32{7, 7}, []int32{7, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	check("fail 7,7 restore 7,7,9", res, 1, 2)
}

// TestChurnSessionObs: updates through an instrumented session emit update
// spans and bfskel_update_* metrics.
func TestChurnSessionObs(t *testing.T) {
	net := testNetwork(t, "window", 900, 7, 3)
	ring := NewRingSink(4096)
	sc := ObsScope{Tracer: NewTracer(ring), Metrics: NewMetricsRegistry()}
	s, err := net.ChurnSessionObs(DefaultParams(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fail([]int32{3}); err != nil {
		t.Fatal(err)
	}
	var sawUpdate bool
	for _, rec := range ring.Records() {
		if rec.Name == "update" {
			sawUpdate = true
		}
	}
	if !sawUpdate {
		t.Error(`no "update" span recorded`)
	}
	snap := sc.Metrics.Snapshot()
	if snap.Counters["bfskel_update_runs_total"] < 1 {
		t.Errorf("bfskel_update_runs_total missing from snapshot: %+v", snap.Counters)
	}
}

// TestFailNodesReport: the report names the affected-node set — failed,
// disconnected and survivor IDs partition the original network.
func TestFailNodesReport(t *testing.T) {
	net := testNetwork(t, "star", 800, 7, 1)
	failed := NodesWithin(net, net.Points[0], 12)
	after, rep := FailNodesReport(net, failed)
	if len(rep.Failed) != len(failed) {
		t.Fatalf("report.Failed = %d ids, requested %d", len(rep.Failed), len(failed))
	}
	if len(rep.Survivors) != after.N() {
		t.Fatalf("report.Survivors = %d ids, survivor network has %d", len(rep.Survivors), after.N())
	}
	if got := len(rep.Failed) + len(rep.Disconnected) + len(rep.Survivors); got != net.N() {
		t.Fatalf("failed+disconnected+survivors = %d, want %d", got, net.N())
	}
	seen := make(map[int32]bool, net.N())
	for _, set := range [][]int32{rep.Failed, rep.Disconnected, rep.Survivors} {
		for i, v := range set {
			if seen[v] {
				t.Fatalf("node %d appears in two report sets", v)
			}
			seen[v] = true
			if i > 0 && set[i-1] >= v {
				t.Fatalf("report set not ascending at %d", v)
			}
		}
	}
	// Survivors carries the dense-ID mapping: positions must line up.
	for newID, oldID := range rep.Survivors {
		if after.Points[newID] != net.Points[oldID] {
			t.Fatalf("survivor %d: position mismatch with original %d", newID, oldID)
		}
	}
}
