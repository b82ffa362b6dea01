package protocol

import (
	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// neighborhoodProgram learns the node's K-hop neighborhood by controlled
// flooding (paper Sec. III-A, first round of flooding): each entry carries
// its hop counter, the "counter" of the paper's description. Carrying it in
// the message rather than inferring distance from delivery rounds keeps
// the protocol correct when message timing is not uniform. A node records
// unknown IDs and re-forwards them while the counter is below K, batching
// everything learned in one step into a single transmission. Batches travel
// as kindIDBatch packed words — one word per (ID, hops) entry — and the
// dedup table is a flatmap, so a step allocates only when the table grows.
type neighborhoodProgram struct {
	k     int32
	known flatmap[int32] // ID -> smallest hop counter heard
	words []uint64       // scratch: this step's re-forward batch
}

var _ simnet.Program = (*neighborhoodProgram)(nil)

func (p *neighborhoodProgram) Init(ctx *simnet.Context) {
	// Geometric estimate of |N_k|: a k-hop disk holds about degree * k^2
	// nodes on a roughly uniform deployment.
	p.known.reserve(ctx.Degree() * int(p.k) * int(p.k))
	p.known.put(int32(ctx.ID()), 0)
	p.words = make([]uint64, 0, 64) // one alloc up front beats append growth
	p.words = append(p.words, packPair(int32(ctx.ID()), 1))
	ctx.Broadcast(kindIDBatch, p.words)
}

func (p *neighborhoodProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	p.words = p.words[:0]
	for _, env := range inbox {
		if env.Kind != kindIDBatch {
			continue
		}
		for _, w := range env.Words {
			id, hops := unpackPair(w)
			p.learn(id, hops)
		}
	}
	if len(p.words) > 0 {
		ctx.Broadcast(kindIDBatch, p.words)
	}
}

// learn records the smallest hop counter per ID and queues the entry for
// re-forwarding while it is still inside the K-hop horizon. Under message
// jitter an identity can first arrive via a longer route, and the shorter
// one must still be re-forwarded so fringe nodes within the horizon are not
// missed.
func (p *neighborhoodProgram) learn(id, hops int32) {
	if prev, seen := p.known.get(id); seen && prev <= hops {
		return
	}
	p.known.put(id, hops)
	if hops < p.k {
		p.words = append(p.words, packPair(id, hops+1))
	}
}

// size returns |N_k| (the node itself excluded).
func (p *neighborhoodProgram) size() int { return p.known.len() - 1 }

// runNeighborhood executes the K-hop discovery phase.
func runNeighborhood(g *graph.Graph, k int, po phaseOpts) ([]int, simnet.Stats, error) {
	programs := make([]simnet.Program, g.N())
	nodes := make([]*neighborhoodProgram, g.N())
	for v := range programs {
		nodes[v] = &neighborhoodProgram{k: int32(k)}
		programs[v] = nodes[v]
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		return nil, simnet.Stats{}, err
	}
	po.configure(sim)
	stats, err := sim.Run()
	if err != nil {
		return nil, stats, err
	}
	khop := make([]int, g.N())
	for v, p := range nodes {
		khop[v] = p.size()
	}
	return khop, stats, nil
}
