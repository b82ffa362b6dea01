// Batched variants of the pruned and bounded floods used outside the
// identify stage: the Voronoi stage's per-site slack-pruned BFS and the
// refine stage's radius-bounded connector reach. Same bit-parallel frontier
// scheme as msbfs.go, and the same branch-free expand (expand, expandRow);
// the pruned flood adds two twists: a per-(node, level) admission bound (the Voronoi dmin+alpha
// prune — the check depends only on the node and the level, never on which
// source is flooding, so batching cannot change which nodes any single
// source visits), and a min-ID parent choice resolved by rescanning each
// settled node's sorted adjacency against the visited words before they
// take the new level. The prune enters the expand as a sign mask on the
// added bits, d > bound[v]+slack or bound[v] < 0 clearing them all, so
// pruned edges cost the same as admitted ones and no branch depends on
// where the prune's frontier lies.
package graph

import "math/bits"

// PrunedVisit is one settle of a slack-pruned batched flood: source Src
// reached node V at hop distance D through Parent, the lowest-ID neighbor
// of V at distance D-1 within Src's pruned visited set. Seeds (D=0) are not
// emitted.
type PrunedVisit struct {
	V      int32
	Src    int32
	D      int32
	Parent int32
}

// PrunedBatch floods up to 64 sources simultaneously under the admission
// rule d <= bound[v]+slack (nodes with bound[v] < 0 admit nothing): exactly
// the Voronoi stage's per-site pruned flood, batched. Every admitted settle
// is appended to buf as a PrunedVisit whose Parent is the canonical min-ID
// predecessor; the grown buffer is returned.
func (w *Walker) PrunedBatch(sources []int32, bound []int32, slack int32, buf []PrunedVisit) []PrunedVisit {
	if len(sources) == 0 {
		return buf
	}
	g := w.g
	offsets, targets, ends := g.offsets, g.targets, g.ends
	if len(sources) > msbfsBatch {
		panic("graph: pruned batch kernel takes at most 64 sources")
	}
	if w.ms == nil {
		w.ms = newMSBFSScratch(g.N())
	}
	s := w.ms
	s.seed(sources)
	seen, next := s.seen, s.next
	cur, fbits, nxt, touched := s.cur, s.fbits, s.nxt, s.touched
	emitted := 0
	for d := int32(1); len(cur) > 0; d++ {
		nxt = expand(g, cur, fbits, seen, next, nxt, admission{bound: bound, off: slack - d})
		// Settle phase A: resolve parents while seen still holds only
		// levels below d. A neighbor u whose seen word carries a bit b new
		// at v reached it at level d-1 exactly: had it reached it earlier,
		// v — whose admission depends only on (v, level) — would have
		// settled b at that earlier level plus one. So scanning v's sorted
		// adjacency ascending and taking the first neighbor carrying each
		// still-needed bit yields the min-ID predecessor per source.
		for _, v := range nxt {
			newBits := next[v]
			var parents [msbfsBatch]int32
			needed := newBits
			for _, u := range targets[offsets[v]:ends[v]] {
				avail := seen[u] & needed
				if avail == 0 {
					continue
				}
				for b := avail; b != 0; b &= b - 1 {
					parents[bits.TrailingZeros64(b)] = u
				}
				needed &^= avail
				if needed == 0 {
					break
				}
			}
			for b := newBits; b != 0; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				buf = append(buf, PrunedVisit{V: v, Src: sources[i], D: d, Parent: parents[i]})
			}
			emitted += bits.OnesCount64(newBits)
		}
		// Settle phase B: mark the new bits seen and make them the next
		// frontier.
		fbits = fbits[:0]
		for _, v := range nxt {
			newBits := next[v]
			next[v] = 0
			if seen[v] == 0 {
				touched = append(touched, v)
			}
			seen[v] |= newBits
			fbits = append(fbits, newBits)
		}
		cur, nxt = nxt, cur
	}
	s.finish(cur, nxt, touched, fbits, true)
	w.s.sweeps += len(sources)
	w.s.visited += emitted
	return buf
}

// BoundedReach floods up to 64 sources simultaneously, truncated at radius
// hops, and records which sources reached each probe: bit i of reach[j] is
// set iff probes[j] lies within radius hops of sources[i] (a probe that IS
// source i counts, distance 0). reach must have len(probes) entries; they
// are overwritten.
func (w *Walker) BoundedReach(sources []int32, radius int32, probes []int32, reach []uint64) {
	for j := range reach {
		reach[j] = 0
	}
	if len(sources) == 0 || radius <= 0 {
		for j, p := range probes {
			for i, src := range sources {
				if p == src {
					reach[j] |= uint64(1) << uint(i)
				}
			}
		}
		return
	}
	g := w.g
	if len(sources) > msbfsBatch {
		panic("graph: bounded reach kernel takes at most 64 sources")
	}
	if w.ms == nil {
		w.ms = newMSBFSScratch(g.N())
	}
	s := w.ms
	s.seed(sources)
	seen, next := s.seen, s.next
	cur, fbits, nxt, touched := s.cur, s.fbits, s.nxt, s.touched
	visited := 0
	for d := int32(1); d <= radius && len(cur) > 0; d++ {
		nxt = expand(g, cur, fbits, seen, next, nxt, admission{})
		fbits = fbits[:0]
		for _, v := range nxt {
			newBits := next[v]
			next[v] = 0
			if seen[v] == 0 {
				touched = append(touched, v)
			}
			seen[v] |= newBits
			fbits = append(fbits, newBits)
			visited += bits.OnesCount64(newBits)
		}
		cur, nxt = nxt, cur
	}
	for j, p := range probes {
		reach[j] = seen[p]
	}
	s.finish(cur, nxt, touched, fbits, true)
	w.s.sweeps += len(sources)
	w.s.visited += visited
}
