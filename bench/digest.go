package bench

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"bfskel"
	"bfskel/internal/core"
)

// Digest is a 64-bit FNV-1a hash over the parts of an extraction result the
// benchmark pins: the sites, the Voronoi cell of every node, the coarse
// skeleton's site edges (pair, connector, end nodes, segment count, path),
// and the final skeleton's nodes and edges. Two results with equal digests
// agree on everything a caller of the pipeline consumes; the per-node
// statistics (ball sizes, centrality) feed the sites and are covered
// through them.
func Digest(res *bfskel.Result) uint64 {
	d := digester{h: fnv.New64a()}
	d.ints("sites", res.Sites)
	d.ints("cells", res.CellOf)
	d.tag("edges", len(res.Edges))
	for _, e := range res.Edges {
		d.put(e.Pair.A, e.Pair.B, e.Connector, e.EndNodes[0], e.EndNodes[1], int32(e.SegmentCount))
		d.ints("path", e.Path)
	}
	nodes := res.Skeleton.Nodes()
	d.ints("skeleton", nodes)
	d.tag("links", res.Skeleton.NumEdges())
	var nbrs []int32
	for _, v := range nodes {
		nbrs = append(nbrs[:0], res.Skeleton.Neighbors(v)...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, w := range nbrs {
			if w > v {
				d.put(v, w)
			}
		}
	}
	d.flush()
	return d.h.Sum64()
}

// FormatDigest renders a digest the way results and golden files store it.
func FormatDigest(x uint64) string { return fmt.Sprintf("%016x", x) }

// digester feeds little-endian int32 words into a hash through a buffer.
type digester struct {
	h   hash.Hash64
	buf []byte
}

func (d *digester) put(vs ...int32) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(v))
	}
	if len(d.buf) >= 1<<16 {
		d.flush()
	}
}

// tag separates sections so equal words in different fields cannot alias.
func (d *digester) tag(name string, n int) {
	d.flush()
	d.h.Write([]byte(name))
	d.put(int32(n))
}

func (d *digester) ints(name string, vs []int32) {
	d.tag(name, len(vs))
	for _, v := range vs {
		d.put(v)
	}
}

func (d *digester) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

// sameRecords reports whether two per-node Voronoi records hold the same
// multiset of (site, distance) pairs. Parents are ignored: several shortest
// paths are equally valid reverse paths, and the distributed protocol may
// settle on a different one than the centralized pipeline.
func sameRecords(a, b []core.SiteDist) bool {
	if len(a) != len(b) {
		return false
	}
	type key struct{ site, d int32 }
	count := make(map[key]int, len(a))
	for _, r := range a {
		count[key{r.Site, r.D}]++
	}
	for _, r := range b {
		k := key{r.Site, r.D}
		if count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}

// matchProtocol checks a distributed phase 1-2 run against the centralized
// result it was configured from: identical sites, identical K-hop sizes and,
// per node, the same (site, distance) record multiset.
func matchProtocol(d *bfskel.DistributedResult, res *bfskel.Result) error {
	if len(d.Sites) != len(res.Sites) {
		return fmt.Errorf("protocol elected %d sites, centralized %d", len(d.Sites), len(res.Sites))
	}
	for i := range d.Sites {
		if d.Sites[i] != res.Sites[i] {
			return fmt.Errorf("protocol site %d is node %d, centralized node %d", i, d.Sites[i], res.Sites[i])
		}
	}
	if len(d.KHop) != len(res.KHopSize) {
		return fmt.Errorf("protocol K-hop table has %d nodes, centralized %d", len(d.KHop), len(res.KHopSize))
	}
	for v := range d.KHop {
		if d.KHop[v] != res.KHopSize[v] {
			return fmt.Errorf("node %d: protocol |N_k| %d, centralized %d", v, d.KHop[v], res.KHopSize[v])
		}
	}
	for v := range d.Records {
		if !sameRecords(d.Records[v], res.Records[v]) {
			return fmt.Errorf("node %d: protocol records %v, centralized %v", v, d.Records[v], res.Records[v])
		}
	}
	return nil
}
