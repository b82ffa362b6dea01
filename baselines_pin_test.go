package bfskel

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// TestBaselineOutputsPinned pins the MAP and CASE skeletons, the flow
// segmentation and the detected boundary cycles on three seed-1 fields by
// digest: the node set, the arc set, every node's SegmentOf label, and
// each cycle's ordered node list. The baselines' boundary distance
// transforms and separation tests, the flow segmentation's distance
// transform and sink merging, and the cycles' band ordering ride on the
// shared flood kernels, so any change in what those kernels report shows
// here as a digest mismatch.
func TestBaselineOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts three 1200-node fields with three algorithms")
	}
	cases := []struct {
		shape            string
		deg              float64
		mapSkel, casSkel string
		flow             string
		cycles           string
	}{
		{"window", 5.96,
			"688:19eac0a89f172cb4/3412:7b9587ecbd3862f5",
			"668:75822d527c10dbd8/3310:d914b7cdf3bd9135",
			"1170:9e809c86f2fef3e5",
			"242:e3f5730274617063"},
		{"twoholes", 7.0,
			"456:bc88b66f1a7fdead/2472:d9b4bf127922de87",
			"596:88f71799af3a7578/3516:0dcdcd778ce61b68",
			"1204:962769f7a33b35d6",
			"349:a4c94b3b7b12b5b9"},
		{"spiral", 9.60,
			"349:7c9772871056d996/2244:83c3e96da24533f7",
			"359:94b68c90bad82e25/2364:43d72686868406f5",
			"1198:45440e69e2e2ee79",
			"105:a81c3fbaa85f7256"},
	}
	for _, c := range cases {
		t.Run(c.shape, func(t *testing.T) {
			net := testNetwork(t, c.shape, 1200, c.deg, 1)
			for _, b := range []struct{ backend, want string }{{"map", c.mapSkel}, {"case", c.casSkel}} {
				res, _, err := ExtractBackend(net, b.backend, BackendParams{})
				if err != nil {
					t.Fatal(err)
				}
				if got := skeletonDigest(res.Skeleton); got != b.want {
					t.Errorf("%s skeleton digest %s, want %s", b.backend, got, b.want)
				}
			}
			res, err := net.Extract(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			flow := SegmentByFlow(net, res.Boundary, 6)
			if got := int32Digest(flow.SegmentOf); got != c.flow {
				t.Errorf("flow segmentation digest %s, want %s", got, c.flow)
			}
			var cycles []int32
			for _, cyc := range DetectBoundary(net).Cycles {
				cycles = append(append(cycles, int32(len(cyc))), cyc...)
			}
			if got := int32Digest(cycles); got != c.cycles {
				t.Errorf("boundary cycles digest %s, want %s", got, c.cycles)
			}
		})
	}
}

// skeletonDigest hashes a skeleton's sorted node list and its sorted arc
// list (each arc as u<v).
func skeletonDigest(s *Skeleton) string {
	nodes := s.Nodes()
	var arcs []int32
	for _, u := range nodes {
		nbrs := slices.Clone(s.Neighbors(u))
		slices.Sort(nbrs)
		for _, v := range nbrs {
			if u < v {
				arcs = append(arcs, u, v)
			}
		}
	}
	return int32Digest(nodes) + "/" + int32Digest(arcs)
}

// int32Digest is the FNV-1a 64 hash of the values, with their count.
func int32Digest(vals []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range vals {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d:%016x", len(vals), h.Sum64())
}
