package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSkeletonAddPath(t *testing.T) {
	s := NewSkeleton(10)
	s.AddPath([]int32{0, 1, 2, 3})
	if s.NumNodes() != 4 || s.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", s.NumNodes(), s.NumEdges())
	}
	// Re-adding the same path must not duplicate edges.
	s.AddPath([]int32{0, 1, 2, 3})
	if s.NumEdges() != 3 {
		t.Errorf("duplicate AddPath created edges: %d", s.NumEdges())
	}
	// Overlapping path shares the 2-3 link.
	s.AddPath([]int32{2, 3, 4})
	if s.NumNodes() != 5 || s.NumEdges() != 4 {
		t.Errorf("after overlap: nodes=%d edges=%d", s.NumNodes(), s.NumEdges())
	}
	if !s.Contains(4) || s.Contains(9) {
		t.Error("Contains wrong")
	}
	if s.Degree(2) != 2 || s.Degree(3) != 2 {
		t.Errorf("degrees: %d, %d", s.Degree(2), s.Degree(3))
	}
}

func TestSkeletonRemove(t *testing.T) {
	s := NewSkeleton(6)
	s.AddPath([]int32{0, 1, 2, 3, 0}) // a 4-cycle
	if s.CycleRank() != 1 {
		t.Fatalf("rank = %d", s.CycleRank())
	}
	s.RemoveEdge(1, 2)
	if s.CycleRank() != 0 || s.NumEdges() != 3 {
		t.Errorf("after RemoveEdge: rank=%d edges=%d", s.CycleRank(), s.NumEdges())
	}
	// Removing a missing edge is a no-op.
	s.RemoveEdge(0, 2)
	if s.NumEdges() != 3 {
		t.Error("RemoveEdge of absent edge changed state")
	}
	s.RemoveNode(0)
	if s.Contains(0) || s.NumEdges() != 1 {
		t.Errorf("after RemoveNode: contains=%v edges=%d", s.Contains(0), s.NumEdges())
	}
	// Removing a non-member is a no-op.
	s.RemoveNode(5)
	if s.NumNodes() != 3 {
		t.Errorf("nodes = %d", s.NumNodes())
	}
}

func TestSkeletonComponentsAndRank(t *testing.T) {
	s := NewSkeleton(12)
	s.AddPath([]int32{0, 1, 2, 0})  // triangle: rank 1
	s.AddPath([]int32{5, 6, 7})     // path: rank 0
	s.AddPath([]int32{8, 9, 10, 8}) // triangle: rank 1
	if got := s.Components(); got != 3 {
		t.Errorf("components = %d", got)
	}
	if got := s.CycleRank(); got != 2 {
		t.Errorf("rank = %d", got)
	}
	var empty Skeleton
	if empty.CycleRank() != 0 || empty.Components() != 0 {
		t.Error("empty skeleton rank/components")
	}
}

func TestSkeletonClone(t *testing.T) {
	s := NewSkeleton(5)
	s.AddPath([]int32{0, 1, 2})
	c := s.Clone()
	c.RemoveNode(1)
	if !s.Contains(1) || s.NumEdges() != 2 {
		t.Error("clone mutation leaked into the original")
	}
	if c.Contains(1) {
		t.Error("clone not mutated")
	}
}

func TestSkeletonNodesSorted(t *testing.T) {
	s := NewSkeleton(10)
	s.AddPath([]int32{7, 3, 9})
	s.isOn[5] = true // isolated member via mask only
	nodes := s.Nodes()
	want := []int32{3, 5, 7, 9}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
	mask := s.Mask()
	mask[3] = false // must be a copy
	if !s.Contains(3) {
		t.Error("Mask returned shared storage")
	}
}

// TestCycleRankProperty: for random skeletons, CycleRank == E - V + C.
func TestCycleRankProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		s := NewSkeleton(n)
		edges := 0
		for i := 0; i < 2*n; i++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			before := s.NumEdges()
			s.AddPath([]int32{a, b})
			if s.NumEdges() > before {
				edges++
			}
		}
		return s.CycleRank() == edges-len(s.Nodes())+s.Components()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPruneBranches(t *testing.T) {
	// A triangle with a short spur and a long tail.
	s := NewSkeleton(20)
	s.AddPath([]int32{0, 1, 2, 0})
	s.AddPath([]int32{1, 10})                 // spur of length 1
	s.AddPath([]int32{2, 11, 12, 13, 14, 15}) // tail of length 5
	pruneBranches(s, 3)
	if s.Contains(10) {
		t.Error("short spur survived pruning")
	}
	if !s.Contains(15) {
		t.Error("long tail pruned")
	}
	if s.CycleRank() != 1 {
		t.Errorf("rank after pruning = %d", s.CycleRank())
	}
	// A free-standing path (no junction) is never erased.
	p := NewSkeleton(5)
	p.AddPath([]int32{0, 1})
	pruneBranches(p, 10)
	if p.NumNodes() != 2 {
		t.Error("free-standing path erased")
	}
}

func TestPruneBranchesIterates(t *testing.T) {
	// Pruning one branch may expose another short one: star of three
	// 2-chains around node 0 plus a triangle keeping 0 a junction.
	s := NewSkeleton(20)
	s.AddPath([]int32{0, 1, 2, 0})
	s.AddPath([]int32{0, 3, 4}) // chain of 2 < minLen 3
	pruneBranches(s, 3)
	if s.Contains(3) || s.Contains(4) {
		t.Error("chain not pruned")
	}
}

func TestMakeSitePair(t *testing.T) {
	if p := MakeSitePair(5, 2); p.A != 2 || p.B != 5 {
		t.Errorf("pair = %v", p)
	}
	if p := MakeSitePair(2, 5); p.A != 2 || p.B != 5 {
		t.Errorf("pair = %v", p)
	}
}

func TestLoopKindString(t *testing.T) {
	if LoopGenuine.String() != "genuine" || LoopFake.String() != "fake" {
		t.Error("LoopKind strings")
	}
	if LoopKind(0).String() != "unknown" {
		t.Error("zero LoopKind string")
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"default", func(*Params) {}, false},
		{"zero K", func(p *Params) { p.K = 0 }, true},
		{"zero L", func(p *Params) { p.L = 0 }, true},
		{"negative scope", func(p *Params) { p.LocalMaxScope = -1 }, true},
		{"negative alpha", func(p *Params) { p.Alpha = -1 }, true},
		{"negative prune", func(p *Params) { p.PruneLen = -1 }, true},
		{"explicit scope", func(p *Params) { p.LocalMaxScope = 2 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	p := DefaultParams()
	if p.Scope() != p.L {
		t.Errorf("default scope = %d, want L", p.Scope())
	}
	p.LocalMaxScope = 2
	if p.Scope() != 2 {
		t.Errorf("explicit scope = %d", p.Scope())
	}
}

func TestStampedUnionFind(t *testing.T) {
	var uf stampedUF
	uf.reset(8)
	if !uf.union(1, 2) {
		t.Error("first union should merge")
	}
	if uf.union(2, 1) {
		t.Error("repeated union should not merge")
	}
	uf.union(3, 4)
	if uf.find(1) == uf.find(3) {
		t.Error("disjoint sets merged")
	}
	uf.union(2, 3)
	if uf.find(1) != uf.find(4) {
		t.Error("transitive union broken")
	}
	// An epoch reset must return every element to a singleton.
	uf.reset(8)
	if uf.find(1) == uf.find(2) {
		t.Error("reset did not clear prior unions")
	}
	if !uf.union(5, 6) {
		t.Error("post-reset union should merge")
	}
}
