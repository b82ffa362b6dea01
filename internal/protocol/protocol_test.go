package protocol_test

import (
	"math"
	"testing"

	"bfskel/internal/core"
	"bfskel/internal/deploy"
	"bfskel/internal/graph"
	"bfskel/internal/protocol"
	"bfskel/internal/radio"
	"bfskel/internal/shapes"
)

// buildNetwork builds a jittered-grid UDG test network restricted to its
// largest component, mirroring the facade's construction.
func buildNetwork(t testing.TB, shapeName string, n int, deg float64, seed int64) *graph.Graph {
	t.Helper()
	shape := shapes.MustByName(shapeName)
	spacing := math.Sqrt(shape.Poly.Area() / float64(n))
	pts := deploy.PerturbedGrid(shape.Poly, spacing, 0.45*spacing, seed)
	r := math.Sqrt(deg * shape.Poly.Area() / (math.Pi * float64(len(pts))))
	for iter := 0; iter < 4; iter++ {
		g := graph.Build(pts, radio.UDG{R: r}, seed)
		if actual := g.AvgDegree(); actual > 0 {
			if math.Abs(actual-deg)/deg < 0.01 {
				break
			}
			r *= math.Sqrt(deg / actual)
		} else {
			r *= 1.5
		}
	}
	g := graph.Build(pts, radio.UDG{R: r}, seed)
	sub, _ := g.Subgraph(g.LargestComponent())
	return sub
}

// TestMatchesCentralized cross-checks the distributed phases against the
// centralized pipeline: identical K-hop sizes, indices, elected sites, and
// Voronoi records (up to the reverse-path parent, where several shortest
// paths are equally valid).
func TestMatchesCentralized(t *testing.T) {
	g := buildNetwork(t, "window", 1200, 7, 3)
	params := core.DefaultParams()
	want, err := core.Extract(g, params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := protocol.Run(g, want.EffectiveK, params.L, want.EffectiveScope, params.Alpha, protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for v := range got.KHop {
		if got.KHop[v] != want.KHopSize[v] {
			t.Fatalf("node %d: distributed |N_k| = %d, centralized %d", v, got.KHop[v], want.KHopSize[v])
		}
		if got.Index[v] != want.Index[v] {
			t.Fatalf("node %d: distributed index = %v, centralized %v", v, got.Index[v], want.Index[v])
		}
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("distributed sites = %d, centralized %d", len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i] != want.Sites[i] {
			t.Fatalf("site %d: distributed %d, centralized %d", i, got.Sites[i], want.Sites[i])
		}
	}
	for v := range got.Records {
		if !sameRecordSet(got.Records[v], want.Records[v]) {
			t.Fatalf("node %d: distributed records %v, centralized %v", v, got.Records[v], want.Records[v])
		}
	}
}

// sameRecordSet compares records as {site, dist} sets.
func sameRecordSet(a, b []core.SiteDist) bool {
	if len(a) != len(b) {
		return false
	}
	type key struct {
		site, d int32
	}
	set := make(map[key]int, len(a))
	for _, r := range a {
		set[key{r.Site, r.D}]++
	}
	for _, r := range b {
		set[key{r.Site, r.D}]--
	}
	for _, c := range set {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestMessageComplexity verifies the paper's Sec. V-A claim: the total
// transmissions stay within a constant factor of (k+l+1)n, and the rounds
// grow sub-linearly in n.
func TestMessageComplexity(t *testing.T) {
	params := core.DefaultParams()
	type row struct {
		n, messages, rounds int
	}
	var rows []row
	for _, n := range []int{600, 1200, 2400} {
		g := buildNetwork(t, "window", n, 7, 1)
		want, err := core.Extract(g, params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := protocol.Run(g, want.EffectiveK, params.L, want.EffectiveScope, params.Alpha, protocol.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{n: g.N(), messages: got.TotalMessages(), rounds: got.TotalRounds()})
	}
	for _, r := range rows {
		bound := (params.K + params.L + 1) * r.n
		t.Logf("n=%d messages=%d bound=(k+l+1)n=%d ratio=%.2f rounds=%d sqrt(n)=%.1f",
			r.n, r.messages, bound, float64(r.messages)/float64(bound), r.rounds, math.Sqrt(float64(r.n)))
		// The set-broadcast realisation costs at most ~2 transmissions per
		// node per flooding round plus the election and Voronoi phases.
		if r.messages > 3*bound {
			t.Errorf("n=%d: %d messages exceeds 3x the (k+l+1)n bound %d", r.n, r.messages, bound)
		}
	}
	// Messages must scale linearly: doubling n should not much more than
	// double the messages.
	growth := float64(rows[2].messages) / float64(rows[0].messages)
	nGrowth := float64(rows[2].n) / float64(rows[0].n)
	if growth > 1.5*nGrowth {
		t.Errorf("message growth %.2f exceeds 1.5x node growth %.2f", growth, nGrowth)
	}
}

// TestJitterExactness: with per-message delivery jitter the protocols'
// outputs must be identical to the synchronous run — the hop counters in
// the payloads, minimum-hop re-forwarding and Alpha-window corrections make
// the phases timing-independent.
func TestJitterExactness(t *testing.T) {
	g := buildNetwork(t, "smile", 1200, 7, 5)
	params := core.DefaultParams()
	sync, err := protocol.Run(g, params.K, params.L, params.Scope(), params.Alpha, protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, jitter := range []int{1, 3} {
		jittered, err := protocol.Run(g, params.K, params.L, params.Scope(), params.Alpha, protocol.Options{Jitter: jitter, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for v := range sync.KHop {
			if sync.KHop[v] != jittered.KHop[v] {
				t.Fatalf("jitter %d: khop[%d] = %d, sync %d", jitter, v, jittered.KHop[v], sync.KHop[v])
			}
			if sync.Index[v] != jittered.Index[v] {
				t.Fatalf("jitter %d: index[%d] differs", jitter, v)
			}
		}
		if len(sync.Sites) != len(jittered.Sites) {
			t.Fatalf("jitter %d: %d sites, sync %d", jitter, len(jittered.Sites), len(sync.Sites))
		}
		for i := range sync.Sites {
			if sync.Sites[i] != jittered.Sites[i] {
				t.Fatalf("jitter %d: site %d differs", jitter, i)
			}
		}
		for v := range sync.Records {
			if !sameRecordSet(sync.Records[v], jittered.Records[v]) {
				t.Fatalf("jitter %d: records differ at node %d:\n sync %v\n jit  %v",
					jitter, v, sync.Records[v], jittered.Records[v])
			}
		}
		// Jitter stretches time and may cost extra corrective messages.
		if jittered.TotalRounds() < sync.TotalRounds() {
			t.Errorf("jitter %d finished faster than synchronous?", jitter)
		}
		t.Logf("jitter=%d: msgs %d (sync %d), rounds %d (sync %d)",
			jitter, jittered.TotalMessages(), sync.TotalMessages(), jittered.TotalRounds(), sync.TotalRounds())
	}
}
