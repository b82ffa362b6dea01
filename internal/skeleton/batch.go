package skeleton

import (
	"fmt"

	"bfskel/internal/graph"
)

// BatchJob is one extraction of a cross-backend batch.
type BatchJob struct {
	// G is the graph to extract from.
	G *graph.Graph
	// Backend names the algorithm; empty means "bfskel".
	Backend string
	// Params configures the run.
	Params Params
}

// ExtractBatch runs every job through the registry, sequentially and
// fail-fast. Consecutive "bfskel" jobs reuse the pooled staged engine
// (the backend holds an engine pool), and boundary-dependent jobs sharing
// one Params.Boundary provider resolve their substrate once per graph — so
// ordering jobs by graph maximises reuse.
func ExtractBatch(jobs []BatchJob) ([]*Result, error) {
	out := make([]*Result, len(jobs))
	for i, job := range jobs {
		name := job.Backend
		if name == "" {
			name = "bfskel"
		}
		b, err := Get(name)
		if err != nil {
			return nil, fmt.Errorf("skeleton: batch job %d: %w", i, err)
		}
		res, _, err := b.Extract(job.G, job.Params)
		if err != nil {
			return nil, fmt.Errorf("skeleton: batch job %d (%s): %w", i, name, err)
		}
		out[i] = res
	}
	return out, nil
}
