package bfskel

import (
	"bfskel/internal/core"
)

// Churn types re-exported from the incremental engine.
type (
	// IncrementalExtractor is the delta extraction engine behind
	// ChurnSession: it repairs the Voronoi partition, re-elects landmarks
	// and splices the skeleton inside the churn-dirtied region only. Its
	// Voronoi repair is one pass at any batch size: it re-floods the whole
	// zone of every cell touching the dirty region with the full stage's
	// batched kernel and keeps every other record row. The update runs a
	// full extraction instead only for four reasons
	// (UpdateStats.FallbackReason): stale state (the last full extraction
	// failed), a multi-round election, a drifted guard radius, or a
	// re-election below the minimum site count. Every result is
	// bit-identical to a from-scratch extraction on the mutated graph.
	IncrementalExtractor = core.IncrementalExtractor
	// UpdateStats describes one incremental update: churn sizes, dirty
	// region, repair effort, fallback outcome and wall time.
	UpdateStats = core.UpdateStats
)

// ChurnSession streams failure and recovery batches through the
// incremental extraction path. The session's first batch switches the
// network's graph into overlay mode: nodes die and revive in place,
// IDs stay stable (so NodesWithin keeps working mid-session), and each
// batch yields a freshly patched Result without re-running the full
// pipeline. Contrast with FailNodesReport, which rebuilds a re-numbered
// network per event.
//
// The session owns the graph's mutation rights: while it is open, mutate
// the network only through Fail/Restore/Step. Sessions are not safe for
// concurrent use.
type ChurnSession struct {
	net *Network
	ix  *core.IncrementalExtractor
}

// ChurnSessionObs opens an incremental extraction session on the network
// and runs the seed extraction, with the scope's tracer and metrics
// attached first: the initial run and every update emit spans ("extract",
// "update") and accumulate bfskel_update_* metrics (the zero scope records
// nothing). See the ChurnSession type for the graph ownership rules.
func (n *Network) ChurnSessionObs(p Params, sc ObsScope) (*ChurnSession, error) {
	ix, err := core.NewIncrementalExtractor(n.Graph, p, sc.Tracer, sc.Metrics)
	if err != nil {
		return nil, err
	}
	return &ChurnSession{net: n, ix: ix}, nil
}

// Step applies one churn batch — failures then recoveries — and returns
// the patched extraction result. An ID outside [0, N) is an error that
// leaves the session unchanged and usable; IDs already in the requested
// state, and repeats within a batch, are ignored; an empty batch returns
// the previous result untouched.
func (s *ChurnSession) Step(fail, restore []int32) (*Result, error) {
	return s.ix.Update(fail, restore)
}

// Fail kills the given nodes and returns the patched result.
func (s *ChurnSession) Fail(nodes []int32) (*Result, error) {
	return s.ix.Update(nodes, nil)
}

// Restore revives the given (currently dead) nodes and returns the
// patched result.
func (s *ChurnSession) Restore(nodes []int32) (*Result, error) {
	return s.ix.Update(nil, nodes)
}

// FailDisk kills every node within radius of center — the paper's
// "nodes failure" hole-forming event — returning the affected IDs and the
// patched result.
func (s *ChurnSession) FailDisk(center Point, radius float64) ([]int32, *Result, error) {
	nodes := NodesWithin(s.net, center, radius)
	res, err := s.ix.Update(nodes, nil)
	return nodes, res, err
}

// Result returns the current extraction result (the seed extraction's
// until the first Step).
func (s *ChurnSession) Result() *Result { return s.ix.Result() }

// LastUpdate reports statistics for the most recent Step.
func (s *ChurnSession) LastUpdate() UpdateStats { return s.ix.LastUpdate() }

// Network returns the session's network. Its graph reflects the current
// overlay state: dead nodes are excluded from adjacency but keep their
// IDs and positions.
func (s *ChurnSession) Network() *Network { return s.net }

// Alive reports whether a node is currently alive in the session.
func (s *ChurnSession) Alive(v int32) bool { return s.net.Graph.Alive(v) }
