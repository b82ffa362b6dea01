package protocol

import (
	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// claim is a candidate maximum flooded during site election, carrying its
// hop counter.
type claim struct {
	ID    int32
	Index float64
	Hops  int32
}

// beats reports whether c wins over o under the election order: higher
// index first, lower ID on ties (matching core.electSites).
func (c claim) beats(o claim) bool {
	return c.Index > o.Index || (c.Index == o.Index && c.ID < o.ID)
}

// electionProgram decides Def. 5 by scope-bounded max-flooding: every node
// floods its own (index, ID) claim with a hop counter; claims stop either
// at the scope horizon or where a strictly better claim is already known. A
// node elects itself when no better claim arrived. Minimum-hop
// re-forwarding keeps each claim's horizon exact under jitter. The
// absorption rule can, in rare corner configurations, withhold a dominated
// claim from a node near the edge of both horizons and elect one extra
// site; the pipeline tolerates extra sites by construction (fake-loop
// clean-up), and on the evaluation networks the election matches the
// centralized Def. 5 exactly (see the cross-check test).
type electionProgram struct {
	scope int32
	own   claim
	best  claim
	hops  int32     // smallest hop counter the best claim arrived with
	buf   [2]uint64 // scratch: kindClaim wire form
}

var _ simnet.Program = (*electionProgram)(nil)

func (p *electionProgram) Init(ctx *simnet.Context) {
	p.best = p.own
	p.hops = 0
	p.buf[0], p.buf[1] = packClaim(claim{ID: p.own.ID, Index: p.own.Index, Hops: 1})
	ctx.Broadcast(kindClaim, p.buf[:])
}

func (p *electionProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	improved := false
	for _, env := range inbox {
		if env.Kind != kindClaim || len(env.Words) != 2 {
			continue
		}
		c := unpackClaim(env.Words[0], env.Words[1])
		switch {
		case c.beats(p.best):
			p.best, p.hops = c, c.Hops
			improved = true
		case c.ID == p.best.ID && c.Hops < p.hops:
			// The reigning claim arrived again via a shorter route: its
			// remaining reach grows, so it must be re-flooded.
			p.hops = c.Hops
			improved = true
		}
	}
	if improved && p.hops < p.scope {
		p.buf[0], p.buf[1] = packClaim(claim{ID: p.best.ID, Index: p.best.Index, Hops: p.hops + 1})
		ctx.Broadcast(kindClaim, p.buf[:])
	}
}

// isSite reports whether the node's own claim survived.
func (p *electionProgram) isSite() bool { return p.best.ID == p.own.ID }

// runElection executes the site election phase.
func runElection(g *graph.Graph, scope int, index []float64, po phaseOpts) ([]int32, simnet.Stats, error) {
	programs := make([]simnet.Program, g.N())
	nodes := make([]*electionProgram, g.N())
	for v := range programs {
		nodes[v] = &electionProgram{
			scope: int32(scope),
			own:   claim{ID: int32(v), Index: index[v]},
		}
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
	var sites []int32
	for v, p := range nodes {
		if p.isSite() {
			sites = append(sites, int32(v))
		}
	}
	return sites, stats, nil
}
