package bfskel

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// fingerprint flattens every result artifact that defines the extraction
// outcome — sites, cell assignment, distances, coarse edges, loops, final
// skeleton adjacency, boundary — into one comparable string. Stats is
// deliberately excluded: timings differ run to run.
func fingerprint(res *Result) string {
	var sb []byte
	add := func(format string, args ...any) {
		sb = append(sb, fmt.Sprintf(format, args...)...)
	}
	add("k=%d scope=%d\n", res.EffectiveK, res.EffectiveScope)
	add("sites=%v\n", res.Sites)
	add("cellOf=%v\n", res.CellOf)
	add("dist=%v\n", res.DistToSite)
	for _, e := range res.Edges {
		add("edge %d-%d conn=%d ends=%v segs=%d path=%v\n",
			e.Pair.A, e.Pair.B, e.Connector, e.EndNodes, e.SegmentCount, e.Path)
	}
	for _, l := range res.Loops {
		add("loop kind=%v sites=%v hub=%d len=%d\n", l.Kind, l.Sites, l.Hub, l.EndLoopLen)
	}
	for _, v := range res.Skeleton.Nodes() {
		nbrs := append([]int32(nil), res.Skeleton.Neighbors(v)...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		add("skel %d: %v\n", v, nbrs)
	}
	add("boundary=%v\n", res.Boundary)
	return string(sb)
}

// TestExtractDeterministicUnderParallelism pins the determinism contract:
// the chunked worker pools must produce byte-identical results whether the
// sweeps run on one core or many.
func TestExtractDeterministicUnderParallelism(t *testing.T) {
	for _, shape := range []string{"window", "onehole"} {
		t.Run(shape, func(t *testing.T) {
			net := testNetwork(t, shape, 800, 7, 3)
			p := DefaultParams()

			prev := runtime.GOMAXPROCS(1)
			serial, errSerial := net.Extract(p)
			runtime.GOMAXPROCS(prev)
			if errSerial != nil {
				t.Fatalf("serial extract: %v", errSerial)
			}

			parallel, err := net.Extract(p)
			if err != nil {
				t.Fatalf("parallel extract: %v", err)
			}
			if got, want := fingerprint(parallel), fingerprint(serial); got != want {
				t.Errorf("GOMAXPROCS=1 and GOMAXPROCS=%d results differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
					prev, want, got)
			}
		})
	}
}

// TestExtractorReuseMatchesFresh pins the engine reuse contract: a pooled
// Extractor run repeatedly over varying parameters must match what fresh
// one-shot extractions produce, proving no scratch state leaks into results.
func TestExtractorReuseMatchesFresh(t *testing.T) {
	net := testNetwork(t, "window", 800, 7, 3)
	x := net.ExtractorObs(ObsScope{})

	var params []Params
	for _, k := range []int{3, 4, 5} {
		p := DefaultParams()
		p.K, p.L = k, k
		params = append(params, p)
	}
	// Repeat the first parameter set so a same-parameter rerun over warm
	// pools is covered too.
	params = append(params, params[0])

	for i, p := range params {
		reused, err := x.Extract(p)
		if err != nil {
			t.Fatalf("run %d (K=%d) reused: %v", i, p.K, err)
		}
		fresh, err := net.Extract(p)
		if err != nil {
			t.Fatalf("run %d (K=%d) fresh: %v", i, p.K, err)
		}
		if got, want := fingerprint(reused), fingerprint(fresh); got != want {
			t.Errorf("run %d (K=%d): reused engine result differs from fresh extraction", i, p.K)
		}
	}
}

// TestExtractBatchMatchesIndividual pins ExtractBatch: pooled engines over
// mixed networks, parameter sets and backends must reproduce the individual
// extractions element for element, and zero-value Params must mean the
// paper defaults.
func TestExtractBatchMatchesIndividual(t *testing.T) {
	window := testNetwork(t, "window", 800, 7, 3)
	onehole := testNetwork(t, "onehole", 800, 7, 3)

	p4 := DefaultParams()
	p3 := DefaultParams()
	p3.K, p3.L = 3, 3
	items := []BatchItem{
		{Network: window, Params: p4},
		{Network: window, Params: p3},
		{Network: onehole, Params: p4},
		{Network: window, Params: p4}, // rebind back to a previous graph
		{Network: onehole, Params: p4, Backend: "map"},
		{Network: window}, // zero Params: the paper defaults
	}

	batch, err := ExtractBatch(items, ObsScope{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch) != len(items) {
		t.Fatalf("batch returned %d results for %d items", len(batch), len(items))
	}
	for i, it := range items {
		var single *Result
		switch {
		case it.Backend == "map":
			br, _, err := ExtractBackend(it.Network, "map", BackendParams{Core: it.Params})
			if err != nil {
				t.Fatalf("item %d individual map extract: %v", i, err)
			}
			single = &Result{Skeleton: br.Skeleton, CellOf: br.CellOf, Boundary: br.Boundary}
		case it.Params == (Params{}):
			if batch[i].Params != DefaultParams() {
				t.Errorf("item %d: zero Params ran with %+v, want DefaultParams", i, batch[i].Params)
			}
			single, err = it.Network.Extract(DefaultParams())
		default:
			single, err = it.Network.Extract(it.Params)
		}
		if err != nil {
			t.Fatalf("item %d individual extract: %v", i, err)
		}
		if got, want := fingerprint(batch[i]), fingerprint(single); got != want {
			t.Errorf("item %d: batch result differs from individual extraction", i)
		}
	}
}

// TestExtractBatchErrors checks the fail-fast contract and item indexing.
func TestExtractBatchErrors(t *testing.T) {
	net := testNetwork(t, "window", 300, 7, 1)
	bad := DefaultParams()
	bad.K = -1
	_, err := ExtractBatch([]BatchItem{
		{Network: net, Params: DefaultParams()},
		{Network: net, Params: bad},
	}, ObsScope{})
	if err == nil {
		t.Fatal("batch with an invalid item succeeded")
	}
	if want := "batch job 1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing item (%q)", err, want)
	}
}
