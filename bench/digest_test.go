package bench

import (
	"testing"

	"bfskel"
	"bfskel/internal/core"
)

func smallResult(t *testing.T) *bfskel.Result {
	t.Helper()
	net, err := bfskel.BuildNetwork(bfskel.NetworkSpec{
		Shape: bfskel.MustShape("onehole"), N: 900, TargetDeg: 7, Seed: 3, Layout: bfskel.LayoutGrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Extract(bfskel.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDigestCoversResult: the digest is stable for equal results and moves
// when any pinned part (sites, cells, coarse edges, skeleton) changes.
func TestDigestCoversResult(t *testing.T) {
	res := smallResult(t)
	base := Digest(res)
	if again := Digest(res); again != base {
		t.Fatal("digest is not deterministic")
	}
	clone := *res
	clone.Skeleton = res.Skeleton.Clone()
	if Digest(&clone) != base {
		t.Fatal("a cloned skeleton changed the digest")
	}

	mutations := map[string]func(r *bfskel.Result){
		"sites": func(r *bfskel.Result) {
			r.Sites = append([]int32(nil), r.Sites...)
			r.Sites[0]++
		},
		"cells": func(r *bfskel.Result) {
			r.CellOf = append([]int32(nil), r.CellOf...)
			r.CellOf[len(r.CellOf)/2] = -1
		},
		"edges": func(r *bfskel.Result) {
			r.Edges = append([]core.SiteEdge(nil), r.Edges...)
			r.Edges[0].Connector++
		},
		"skeleton": func(r *bfskel.Result) {
			r.Skeleton = r.Skeleton.Clone()
			v := r.Skeleton.Nodes()[0]
			r.Skeleton.RemoveNode(v)
		},
	}
	for name, mutate := range mutations {
		m := *res
		mutate(&m)
		if Digest(&m) == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}

func TestSameRecords(t *testing.T) {
	a := []core.SiteDist{{Site: 1, D: 2, Parent: 5}, {Site: 3, D: 2, Parent: 6}}
	b := []core.SiteDist{{Site: 3, D: 2, Parent: 9}, {Site: 1, D: 2, Parent: 8}}
	if !sameRecords(a, b) {
		t.Error("records differing only in parents and order compare unequal")
	}
	c := []core.SiteDist{{Site: 1, D: 2}, {Site: 1, D: 2}}
	if sameRecords(a, c) {
		t.Error("different multisets compare equal")
	}
	if sameRecords(a, a[:1]) {
		t.Error("records of different length compare equal")
	}
}
