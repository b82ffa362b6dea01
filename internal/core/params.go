// Package core implements the paper's contribution: connectivity-based,
// boundary-free skeleton extraction (Sec. III). The pipeline has four
// phases — skeleton node identification, Voronoi cell construction, coarse
// skeleton establishment and final clean-up — plus the two by-products
// (segmentation and network boundaries).
package core

import "fmt"

// Params configures the extraction pipeline. The zero value is not valid;
// use DefaultParams (the paper's settings) and override fields as needed.
type Params struct {
	// K is the neighborhood-size radius: each node learns |N_K(p)|
	// (Def. 2). The paper uses K = 4.
	K int
	// L is the centrality radius: c_L(p) averages the K-hop neighborhood
	// sizes over the L-hop neighbors (Def. 3). The paper uses L = 4.
	L int
	// LocalMaxScope is the hop radius within which a node's index must be
	// maximal to self-identify as a critical skeleton node (Def. 5).
	// 0 means "use L".
	LocalMaxScope int
	// Alpha is the hop-count slack for segment nodes: a node almost
	// equidistant (difference <= Alpha) to two sites records both
	// (Sec. III-B; the paper uses Alpha = 1).
	Alpha int32
	// PruneLen is the maximum length (in hops) of a leaf skeleton branch
	// that gets trimmed during the final clean-up. 0 means automatic:
	// max(2, 0.4 x mean site-edge path length).
	PruneLen int
}

// DefaultParams returns the paper's default configuration (K = L = 4,
// Alpha = 1).
func DefaultParams() Params {
	return Params{
		K:     4,
		L:     4,
		Alpha: 1,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", p.K)
	}
	if p.L < 1 {
		return fmt.Errorf("core: L must be >= 1, got %d", p.L)
	}
	if p.LocalMaxScope < 0 {
		return fmt.Errorf("core: LocalMaxScope must be >= 0, got %d", p.LocalMaxScope)
	}
	if p.Alpha < 0 {
		return fmt.Errorf("core: Alpha must be >= 0, got %d", p.Alpha)
	}
	if p.PruneLen < 0 {
		return fmt.Errorf("core: PruneLen must be >= 0, got %d", p.PruneLen)
	}
	return nil
}

// Scope returns the effective local-maximum scope: LocalMaxScope when set,
// otherwise L.
func (p Params) Scope() int {
	if p.LocalMaxScope > 0 {
		return p.LocalMaxScope
	}
	return p.L
}
