package bfskel

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// TestBaselineOutputsPinned pins the MAP and CASE skeletons and the
// flow segmentation on three seed-1 fields by digest: the node set, the
// arc set and every node's SegmentOf label. The baselines' boundary
// distance transforms and separation tests, and the flow segmentation's
// sink merging, ride on the shared flood kernels, so any change in what
// those kernels report shows here as a digest mismatch.
func TestBaselineOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts three 1200-node fields with three algorithms")
	}
	cases := []struct {
		shape            string
		deg              float64
		mapSkel, casSkel string
		flow             string
	}{
		{"window", 5.96,
			"688:19eac0a89f172cb4/3412:7b9587ecbd3862f5",
			"668:75822d527c10dbd8/3310:d914b7cdf3bd9135",
			"1170:9e809c86f2fef3e5"},
		{"twoholes", 7.0,
			"456:bc88b66f1a7fdead/2472:d9b4bf127922de87",
			"596:88f71799af3a7578/3516:0dcdcd778ce61b68",
			"1204:962769f7a33b35d6"},
		{"spiral", 9.60,
			"349:7c9772871056d996/2244:83c3e96da24533f7",
			"359:94b68c90bad82e25/2364:43d72686868406f5",
			"1198:45440e69e2e2ee79"},
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
