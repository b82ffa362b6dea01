package protocol

import (
	"bfskel/internal/core"
	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// voronoiProgram implements the Voronoi cell construction (paper
// Sec. III-B): the sites flood simultaneously; every node keeps its nearest
// site(s), records any site whose distance is within Alpha of the nearest,
// remembers the reverse-path parent, and forwards each new or improved
// record once. Distances travel in the payload, and improved (shorter)
// arrivals update and re-forward, so the final records equal the
// centralized pruned multi-source BFS even when message timing is jittered;
// when the nearest distance shrinks, records that fall out of the Alpha
// window are dropped.
// Batches travel as kindVoronoiBatch packed words — one word per
// (site, dist) entry.
type voronoiProgram struct {
	alpha   int32
	site    bool
	dmin    int32
	records []record
	words   []uint64 // scratch: this step's re-forward batch
}

// record is a recorded site with its distance and reverse-path parent.
type record struct {
	site   int32
	dist   int32
	parent int32
}

var _ simnet.Program = (*voronoiProgram)(nil)

func (p *voronoiProgram) Init(ctx *simnet.Context) {
	p.dmin = -1
	p.words = make([]uint64, 0, 16) // one alloc up front beats append growth
	if p.site {
		p.dmin = 0
		p.records = append(p.records, record{site: int32(ctx.ID()), dist: 0, parent: int32(ctx.ID())})
		p.words = append(p.words[:0], packPair(int32(ctx.ID()), 0))
		ctx.Broadcast(kindVoronoiBatch, p.words)
	}
}

func (p *voronoiProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	p.words = p.words[:0]
	for _, env := range inbox {
		if env.Kind != kindVoronoiBatch {
			continue
		}
		for _, w := range env.Words {
			site, dist := unpackPair(w)
			p.learn(site, dist, int32(env.From))
		}
	}
	if len(p.words) > 0 {
		ctx.Broadcast(kindVoronoiBatch, p.words)
	}
}

// learn applies the Alpha-window accept/drop rule to one announced (site,
// dist) wavefront entry and queues accepted entries for re-forwarding.
func (p *voronoiProgram) learn(site, dist, from int32) {
	d := dist + 1
	if p.dmin != -1 && d > p.dmin+p.alpha {
		return
	}
	if !p.accept(site, d, from) {
		return
	}
	if p.dmin == -1 || d < p.dmin {
		p.dmin = d
		p.dropStale()
	}
	p.words = append(p.words, packPair(site, d))
}

// accept records or improves the (site, dist) entry; it reports whether the
// entry was new or shorter than what was known.
func (p *voronoiProgram) accept(site, dist, parent int32) bool {
	for i := range p.records {
		if p.records[i].site != site {
			continue
		}
		if p.records[i].dist <= dist {
			return false
		}
		p.records[i].dist = dist
		p.records[i].parent = parent
		return true
	}
	p.records = append(p.records, record{site: site, dist: dist, parent: parent})
	return true
}

// dropStale removes records outside the Alpha window after dmin shrank.
func (p *voronoiProgram) dropStale() {
	kept := p.records[:0]
	for _, r := range p.records {
		if r.dist <= p.dmin+p.alpha {
			kept = append(kept, r)
		}
	}
	p.records = kept
}

// runVoronoi executes the Voronoi flooding phase.
func runVoronoi(g *graph.Graph, sites []int32, alpha int32, po phaseOpts) ([][]core.SiteDist, simnet.Stats, error) {
	isSite := make([]bool, g.N())
	for _, s := range sites {
		isSite[s] = true
	}
	programs := make([]simnet.Program, g.N())
	nodes := make([]*voronoiProgram, g.N())
	for v := range programs {
		nodes[v] = &voronoiProgram{alpha: alpha, site: isSite[v]}
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
	records := make([][]core.SiteDist, g.N())
	for v, p := range nodes {
		for _, r := range p.records {
			records[v] = append(records[v], core.SiteDist{Site: r.site, D: r.dist, Parent: r.parent})
		}
	}
	return records, stats, nil
}
