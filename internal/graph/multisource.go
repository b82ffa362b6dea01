package graph

// SourceRecord is one entry of a node's almost-nearest source set.
type SourceRecord struct {
	// Source is the source node's ID.
	Source int32
	// D is the hop distance from the recording node to Source.
	D int32
	// Parent is the recording node's parent in the shortest-path tree
	// rooted at Source.
	Parent int32
}

// MultiSourceRecords computes, for every node, the set of sources whose hop
// distance is within slack of the nearest source, with reverse-path
// parents: the generic form of the paper's Voronoi flooding, also used by
// the MAP and CASE baselines for their boundary distance transforms.
//
// It runs one plain multi-source BFS for the minimum distances, then one
// pruned BFS per source that only visits nodes with d_s(v) <= dmin(v)+slack
// — exact, because the slack never increases along a shortest path toward
// the source — so total work is proportional to the records produced.
func (g *Graph) MultiSourceRecords(sources []int32, slack int32) (dmin []int32, records [][]SourceRecord) {
	n := g.N()
	dmin = make([]int32, n)
	records = make([][]SourceRecord, n)
	for i := range dmin {
		dmin[i] = Unreachable
	}
	if len(sources) == 0 {
		return dmin, records
	}

	queue := make([]int32, 0, n)
	for _, s := range sources {
		if dmin[s] == Unreachable {
			dmin[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dmin[u]
		for _, v := range g.Neighbors(int(u)) {
			if dmin[v] == Unreachable {
				dmin[v] = du + 1
				queue = append(queue, v)
			}
		}
	}

	dist := make([]int32, n)
	stamp := make([]int32, n)
	seen := make(map[int32]bool, len(sources))
	var epoch int32
	for _, s := range sources {
		if seen[s] {
			continue // duplicate source
		}
		seen[s] = true
		epoch++
		dist[s] = 0
		stamp[s] = epoch
		queue = queue[:0]
		queue = append(queue, s)
		records[s] = append(records[s], SourceRecord{Source: s, D: 0, Parent: s})
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u]
			for _, v := range g.Neighbors(int(u)) {
				if stamp[v] == epoch {
					continue
				}
				dv := du + 1
				if dmin[v] == Unreachable || dv > dmin[v]+slack {
					continue
				}
				stamp[v] = epoch
				dist[v] = dv
				queue = append(queue, v)
				records[v] = append(records[v], SourceRecord{Source: s, D: dv, Parent: u})
			}
		}
	}
	return dmin, records
}
