package core

// SiteDist is one entry of a node's record of almost-equidistant sites.
type SiteDist struct {
	// Site is the critical skeleton node's ID.
	Site int32
	// D is the hop distance from the recording node to Site.
	D int32
	// Parent is the recording node's parent in the shortest-path tree
	// rooted at Site (the "reverse path" kept during Voronoi construction).
	Parent int32
}

// SitePair is an unordered pair of site IDs with A < B.
type SitePair struct {
	A, B int32
}

// MakeSitePair normalises the ordering.
func MakeSitePair(a, b int32) SitePair {
	if a > b {
		a, b = b, a
	}
	return SitePair{A: a, B: b}
}

// SiteEdge is a connection between two adjacent sites through a chosen
// segment node (Sec. III-C).
type SiteEdge struct {
	// Pair identifies the two sites.
	Pair SitePair
	// Connector is the segment node with the largest index among the
	// pair's segment nodes.
	Connector int32
	// Path is the full node path from Pair.A through Connector to Pair.B.
	Path []int32
	// EndNodes are the two farthest-apart segment nodes of the pair,
	// used during loop identification (Sec. III-D). They may coincide
	// with the connector for point-adjacent cells.
	EndNodes [2]int32
	// SegmentCount is the number of segment nodes between the two cells
	// (>1 means edge-adjacent, ==1 point-adjacent).
	SegmentCount int
}

// LoopKind classifies an identified skeleton loop.
type LoopKind int

// Loop classification outcomes.
const (
	// LoopGenuine is a loop caused by a hole; it is kept so the skeleton
	// stays homotopic to the network.
	LoopGenuine LoopKind = iota + 1
	// LoopFake is a loop caused by three or more mutually adjacent Voronoi
	// cells; it is merged and deleted during refinement.
	LoopFake
)

// String implements fmt.Stringer.
func (k LoopKind) String() string {
	switch k {
	case LoopGenuine:
		return "genuine"
	case LoopFake:
		return "fake"
	default:
		return "unknown"
	}
}

// Loop is an identified cycle of the coarse skeleton.
type Loop struct {
	Kind LoopKind
	// Sites are the sites on the loop.
	Sites []int32
	// Hub is the pocket node through which a deleted fake loop was
	// re-skeletonized (-1 for genuine loops).
	Hub int32
	// EndLoopLen is the measured end-node loop length that classified the
	// loop (fake loops only).
	EndLoopLen int32
}

// Skeleton is a node-level skeleton: a subset of network nodes plus the
// connectivity among them induced by the site-edge paths. Adjacency is a
// per-node offset into a shared chunk arena: skeleton degrees are tiny
// (mostly 2, a junction handful more), so lists start as 4-slot chunks and
// relocate within the arena on the rare spill. The layout keeps the
// per-node footprint at one int32 and makes Clone two bulk copies.
type Skeleton struct {
	n    int
	isOn []bool
	// off[v] is the arena index of v's chunk, 0 when v has no neighbors
	// (index 0 is a sentinel so the zero value means "none").
	off []int32
	// arena holds neighbor chunks laid out as [cap, len, entries...].
	arena []int32
	edges int
}

// skelChunk is the initial chunk capacity; skeleton degree rarely exceeds 4.
const skelChunk = 4

// NewSkeleton creates an empty skeleton over a network of n nodes.
func NewSkeleton(n int) *Skeleton {
	return &Skeleton{n: n, isOn: make([]bool, n), off: make([]int32, n), arena: make([]int32, 1, 64)}
}

// skeletonOf builds the skeleton of count paths, adding path(i) in index
// order (a nil path is skipped). A first pass marks the nodes, so the
// arena is allocated once: one initial chunk per node plus a quarter word
// per node for the few junctions that relocate, instead of growing by
// append, which at large sizes copies the whole arena every 25%.
func skeletonOf(n, count int, path func(i int) []int32) *Skeleton {
	s := NewSkeleton(n)
	nodes := 0
	for i := 0; i < count; i++ {
		for _, v := range path(i) {
			if !s.isOn[v] {
				s.isOn[v] = true
				nodes++
			}
		}
	}
	s.arena = make([]int32, 1, 1+(skelChunk+2)*nodes+nodes/4)
	for i := 0; i < count; i++ {
		s.AddPath(path(i))
	}
	return s
}

// AddPath marks every node of the path as a skeleton node and links
// consecutive nodes.
func (s *Skeleton) AddPath(path []int32) {
	for i, v := range path {
		s.isOn[v] = true
		if i > 0 {
			s.addEdge(path[i-1], v)
		}
	}
}

// addEdge inserts an undirected edge once.
func (s *Skeleton) addEdge(u, v int32) {
	if u == v || s.hasEdge(u, v) {
		return
	}
	s.addNbr(u, v)
	s.addNbr(v, u)
	s.edges++
}

// addNbr appends w to v's chunk, allocating or relocating it in the arena as
// needed (a relocated chunk's old slots stay behind as dead arena words —
// bounded, since few nodes ever outgrow the initial capacity).
func (s *Skeleton) addNbr(v, w int32) {
	o := s.off[v]
	if o == 0 {
		o = int32(len(s.arena))
		s.arena = append(s.arena, skelChunk, 0, 0, 0, 0, 0)
		s.off[v] = o
	}
	c, l := s.arena[o], s.arena[o+1]
	if l == c {
		no := int32(len(s.arena))
		s.arena = append(s.arena, 2*c, l)
		s.arena = append(s.arena, s.arena[o+2:o+2+l]...)
		for i := l; i < 2*c; i++ {
			s.arena = append(s.arena, 0)
		}
		o = no
		s.off[v] = o
	}
	s.arena[o+2+s.arena[o+1]] = w
	s.arena[o+1]++
}

func (s *Skeleton) hasEdge(u, v int32) bool {
	for _, w := range s.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// RemoveNode deletes v and all its incident edges.
func (s *Skeleton) RemoveNode(v int32) {
	if !s.isOn[v] {
		return
	}
	s.isOn[v] = false
	for _, w := range s.Neighbors(v) {
		s.removeDirected(w, v)
		s.edges--
	}
	s.off[v] = 0
}

func (s *Skeleton) removeDirected(u, v int32) {
	nbrs := s.Neighbors(u)
	for i, w := range nbrs {
		if w == v {
			nbrs[i] = nbrs[len(nbrs)-1]
			s.arena[s.off[u]+1]--
			return
		}
	}
}

// RemoveEdge deletes the undirected edge {u, v} if present. Nodes left
// isolated remain skeleton nodes until explicitly removed.
func (s *Skeleton) RemoveEdge(u, v int32) {
	if !s.hasEdge(u, v) {
		return
	}
	s.removeDirected(u, v)
	s.removeDirected(v, u)
	s.edges--
}

// Contains reports whether v is a skeleton node.
func (s *Skeleton) Contains(v int32) bool { return s.isOn[v] }

// Mask returns a copy of the skeleton-membership mask over all n nodes.
func (s *Skeleton) Mask() []bool {
	out := make([]bool, len(s.isOn))
	copy(out, s.isOn)
	return out
}

// Nodes returns the sorted skeleton node IDs.
func (s *Skeleton) Nodes() []int32 {
	out := make([]int32, 0, 256)
	for v := int32(0); int(v) < s.n; v++ {
		if s.isOn[v] {
			out = append(out, v)
		}
	}
	return out
}

// Neighbors returns the skeleton-adjacent nodes of v. The returned slice is
// a live view into the arena: valid until the next addEdge, and mutated in
// place by edge removals.
func (s *Skeleton) Neighbors(v int32) []int32 {
	o := s.off[v]
	if o == 0 {
		return nil
	}
	return s.arena[o+2 : o+2+s.arena[o+1]]
}

// Degree returns the skeleton degree of v.
func (s *Skeleton) Degree(v int32) int {
	o := s.off[v]
	if o == 0 {
		return 0
	}
	return int(s.arena[o+1])
}

// NumNodes returns the number of skeleton nodes.
func (s *Skeleton) NumNodes() int {
	n := 0
	for _, on := range s.isOn {
		if on {
			n++
		}
	}
	return n
}

// NumEdges returns the number of skeleton edges.
func (s *Skeleton) NumEdges() int { return s.edges }

// CycleRank returns E - V + C, the number of independent cycles: it must
// equal the number of holes for the skeleton to be homotopic to the network
// region (Sec. III-D).
func (s *Skeleton) CycleRank() int {
	return s.edges - s.NumNodes() + s.Components()
}

// Components returns the number of connected components of the skeleton.
func (s *Skeleton) Components() int {
	nodes := s.Nodes()
	seen := make(map[int32]bool, len(nodes))
	comps := 0
	var stack []int32
	for _, v := range nodes {
		if seen[v] {
			continue
		}
		comps++
		seen[v] = true
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range s.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return comps
}

// Clone returns a deep copy of the skeleton.
func (s *Skeleton) Clone() *Skeleton {
	return &Skeleton{
		n:     s.n,
		isOn:  append([]bool(nil), s.isOn...),
		off:   append([]int32(nil), s.off...),
		arena: append([]int32(nil), s.arena...),
		edges: s.edges,
	}
}

// Result carries every artifact of one extraction run.
type Result struct {
	// Params echoes the configuration used.
	Params Params
	// EffectiveK and EffectiveScope are the radii actually used after the
	// saturation guard (see identify); they equal Params.K and the
	// configured scope on ordinary networks.
	EffectiveK     int
	EffectiveScope int

	// KHopSize is |N_K(p)| per node.
	KHopSize []int
	// LCentrality is c_L(p) per node (Def. 3).
	LCentrality []float64
	// Index is i(p) per node (Def. 4).
	Index []float64

	// Sites are the critical skeleton nodes (Def. 5), sorted by ID.
	Sites []int32
	// CellOf maps each node to the site whose Voronoi cell it belongs to
	// (-1 for nodes unreachable from every site).
	CellOf []int32
	// DistToSite is the hop distance to the nearest site (-1 unreachable).
	DistToSite []int32
	// Records holds, per node, the almost-equidistant sites it kept during
	// Voronoi construction (>= 2 entries makes it a segment node, >= 3 a
	// Voronoi node).
	Records [][]SiteDist
	// SegmentNodes and VoronoiNodes list those special nodes, sorted.
	SegmentNodes []int32
	VoronoiNodes []int32

	// Edges are the site-to-site connections of the coarse skeleton.
	Edges []SiteEdge
	// Coarse is the coarse skeleton before refinement.
	Coarse *Skeleton
	// Loops are the identified loops with their classification.
	Loops []Loop
	// Skeleton is the refined, final skeleton.
	Skeleton *Skeleton

	// Boundary is the boundary by-product: node IDs classified as
	// boundary nodes.
	Boundary []int32

	// Stats instruments the run that produced this result: per-phase wall
	// time plus work and outcome counters. The staged engine always
	// populates it; it is nil on results assembled by hand, and excluded
	// from result equality (two identical extractions differ only here).
	Stats *Stats `json:",omitempty"`
}

// IsSegmentNode reports whether v recorded two or more sites.
func (r *Result) IsSegmentNode(v int32) bool { return len(r.Records[v]) >= 2 }

// IsVoronoiNode reports whether v recorded three or more sites.
func (r *Result) IsVoronoiNode(v int32) bool { return len(r.Records[v]) >= 3 }

// NumGenuineLoops counts loops classified as genuine.
func (r *Result) NumGenuineLoops() int {
	n := 0
	for _, l := range r.Loops {
		if l.Kind == LoopGenuine {
			n++
		}
	}
	return n
}

// NumFakeLoops counts loops classified as fake.
func (r *Result) NumFakeLoops() int {
	n := 0
	for _, l := range r.Loops {
		if l.Kind == LoopFake {
			n++
		}
	}
	return n
}
