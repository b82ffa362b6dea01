// Boundary: the boundary by-product (paper Fig. 3b) and the comparison the
// paper's introduction frames — MAP and CASE need boundaries as input;
// this pipeline produces them as output. The example detects boundaries
// statistically, runs MAP and CASE on top of them, and shows how injected
// boundary noise inflates MAP's medial set while the boundary-free pipeline
// is untouched by construction.
//
//	go run ./examples/boundary
package main

import (
	"fmt"
	"log"

	"bfskel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net, err := bfskel.BuildNetwork(bfskel.NetworkSpec{
		Shape:     bfskel.MustShape("star"),
		N:         1394,
		TargetDeg: 6.59,
		Seed:      1,
		Layout:    bfskel.LayoutGrid,
	})
	if err != nil {
		return err
	}

	// Our pipeline: boundary comes out as a by-product.
	res, err := net.Extract(bfskel.DefaultParams())
	if err != nil {
		return err
	}
	prec, rec := bfskel.BoundaryPrecisionRecall(net, res.Boundary, 0)
	fmt.Printf("boundary by-product: %d nodes, precision %.2f, recall %.2f\n", len(res.Boundary), prec, rec)

	// The baselines: boundary must go in as input.
	b := bfskel.DetectBoundary(net)
	prec, rec = bfskel.BoundaryPrecisionRecall(net, b.Nodes, 0)
	fmt.Printf("dedicated detector:  %d nodes, precision %.2f, recall %.2f, %d cycles\n",
		len(b.Nodes), prec, rec, len(b.Cycles))

	bp := bfskel.BackendParams{Boundary: bfskel.StaticBoundary(b)}
	mout, _, err := bfskel.ExtractBackend(net, "map", bp)
	if err != nil {
		return err
	}
	cout, _, err := bfskel.ExtractBackend(net, "case", bp)
	if err != nil {
		return err
	}
	mres := mout.Native.(*bfskel.MAPResult)
	cres := cout.Native.(*bfskel.CASEResult)
	fmt.Printf("\nwith this boundary as input:\n")
	fmt.Printf("  MAP  medial axis: %d nodes\n", len(mres.MedialNodes))
	fmt.Printf("  CASE skeleton:    %d nodes (%d boundary branches)\n", len(cres.SkeletonNodes), cres.NumBranches)
	fmt.Printf("  ours (no boundary input): %d skeleton nodes\n", res.Skeleton.NumNodes())

	// Boundary noise: promote a few interior nodes to fake boundary nodes.
	noisy := bfskel.DetectBoundary(net)
	maxClear := 0.0
	for v := 0; v < net.N(); v++ {
		if c := net.Spec.Shape.Poly.BoundaryDist(net.Points[v]); c > maxClear {
			maxClear = c
		}
	}
	added := 0
	for v := 0; v < net.N() && added < 8; v++ {
		if !noisy.IsBoundary[v] && net.Spec.Shape.Poly.BoundaryDist(net.Points[v]) > maxClear/2 {
			noisy.IsBoundary[v] = true
			noisy.Nodes = append(noisy.Nodes, int32(v))
			noisy.Cycles = append(noisy.Cycles, []int32{int32(v)})
			added++
		}
	}
	mNoisy, _, err := bfskel.ExtractBackend(net, "map", bfskel.BackendParams{Boundary: bfskel.StaticBoundary(noisy)})
	if err != nil {
		return err
	}
	fmt.Printf("\nafter injecting %d fake boundary nodes:\n", added)
	fmt.Printf("  MAP  medial axis: %d -> %d nodes (boundary-noise sensitivity)\n",
		len(mres.MedialNodes), len(mNoisy.Native.(*bfskel.MAPResult).MedialNodes))
	fmt.Printf("  ours: unchanged — the pipeline never consumes boundary input\n")
	return nil
}
