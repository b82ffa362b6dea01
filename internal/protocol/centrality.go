package protocol

import (
	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// sizeEntry is one node's K-hop neighborhood size, the value centrality
// flooding spreads.
type sizeEntry struct {
	ID   int32
	Size int32
}

// sizeHop is the flatmap record of one learned neighbor: its K-hop size and
// the smallest hop counter it arrived with.
type sizeHop struct {
	size int32
	hops int32
}

// centralityProgram is the second round of controlled flooding (paper
// Sec. III-A): each node broadcasts its K-hop neighborhood size within its
// L-hop neighbors, then computes its L-centrality and index. Hop counters
// travel in the payload with minimum-hop re-forwarding, so the phase is
// exact under message jitter. Batches travel as kindSizeBatch packed words
// — two words per (ID, size, hops) entry — over a single flatmap table.
type centralityProgram struct {
	l     int32
	own   sizeEntry
	tab   flatmap[sizeHop] // ID -> (K-hop size, smallest hop counter heard)
	words []uint64         // scratch: this step's re-forward batch
}

var _ simnet.Program = (*centralityProgram)(nil)

func (p *centralityProgram) Init(ctx *simnet.Context) {
	// Geometric estimate of |N_l|, as in neighborhoodProgram.Init.
	p.tab.reserve(ctx.Degree() * int(p.l) * int(p.l))
	p.tab.put(p.own.ID, sizeHop{size: p.own.Size, hops: 0})
	p.words = make([]uint64, 0, 128) // one alloc up front beats append growth
	p.words = append(p.words, packPair(p.own.ID, p.own.Size), 1)
	ctx.Broadcast(kindSizeBatch, p.words)
}

func (p *centralityProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	p.words = p.words[:0]
	for _, env := range inbox {
		if env.Kind != kindSizeBatch {
			continue
		}
		ws := env.Words
		for i := 0; i+1 < len(ws); i += 2 {
			id, size := unpackPair(ws[i])
			p.learn(id, size, int32(ws[i+1]))
		}
	}
	if len(p.words) > 0 {
		ctx.Broadcast(kindSizeBatch, p.words)
	}
}

// learn applies minimum-hop dedup and queues in-horizon entries for
// re-forwarding, exactly as neighborhoodProgram.learn.
func (p *centralityProgram) learn(id, size, hops int32) {
	if prev, seen := p.tab.get(id); seen && prev.hops <= hops {
		return
	}
	p.tab.put(id, sizeHop{size: size, hops: hops})
	if hops < p.l {
		p.words = append(p.words, packPair(id, size), uint64(hops+1))
	}
}

// centrality returns c_L(p): the average K-hop size over the learned L-hop
// neighborhood including the node itself (matching core.indexField). The
// sum is integer, so the result is independent of table iteration order.
func (p *centralityProgram) centrality() float64 {
	var sum int64
	for _, s := range p.tab.slots {
		if s.key != -1 {
			sum += int64(s.val.size)
		}
	}
	return float64(sum) / float64(p.tab.len())
}

// runCentrality executes the centrality phase and derives the index.
func runCentrality(g *graph.Graph, l int, khop []int, po phaseOpts) (cent, index []float64, stats simnet.Stats, err error) {
	programs := make([]simnet.Program, g.N())
	nodes := make([]*centralityProgram, g.N())
	for v := range programs {
		nodes[v] = &centralityProgram{
			l:   int32(l),
			own: sizeEntry{ID: int32(v), Size: int32(khop[v])},
		}
		programs[v] = nodes[v]
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		return nil, nil, simnet.Stats{}, err
	}
	po.configure(sim)
	stats, err = sim.Run()
	if err != nil {
		return nil, nil, stats, err
	}
	cent = make([]float64, g.N())
	index = make([]float64, g.N())
	for v, p := range nodes {
		cent[v] = p.centrality()
		index[v] = (float64(khop[v]) + cent[v]) / 2
	}
	return cent, index, stats, nil
}
