package bfskel

import (
	"encoding/json"
	"fmt"
	"io"

	"bfskel/internal/graph"
)

// The JSON encodings below make networks and extraction results durable
// artifacts: a network can be saved and re-loaded for exact reproduction,
// and a result can be consumed by external tooling (plotters, GIS, other
// languages) without re-running the pipeline.

// networkJSON is the wire form of a Network.
type networkJSON struct {
	Shape  string       `json:"shape"`
	Radio  radioJSON    `json:"radio"`
	Points [][2]float64 `json:"points"`
	Edges  [][2]int32   `json:"edges"`
}

// radioJSON is the wire form of a radio model.
type radioJSON struct {
	Kind    string  `json:"kind"`
	R       float64 `json:"r"`
	Alpha   float64 `json:"alpha,omitempty"`
	P       float64 `json:"p,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
}

// SaveNetwork writes the network (positions, links and radio model) as
// JSON; LoadNetwork restores it bit-exactly, so experiments can be pinned
// to a stored artifact instead of a (seed, version) pair.
func SaveNetwork(net *Network, w io.Writer) error {
	out := networkJSON{
		Shape:  net.Spec.Shape.Name,
		Points: make([][2]float64, net.N()),
	}
	switch m := net.Radio.(type) {
	case UDG:
		out.Radio = radioJSON{Kind: "udg", R: m.R}
	case QUDG:
		out.Radio = radioJSON{Kind: "qudg", R: m.R, Alpha: m.Alpha, P: m.P}
	case LogNormal:
		out.Radio = radioJSON{Kind: "lognormal", R: m.R, Epsilon: m.Epsilon}
	default:
		return fmt.Errorf("bfskel: cannot serialise radio model %T", net.Radio)
	}
	for i, p := range net.Points {
		out.Points[i] = [2]float64{p.X, p.Y}
	}
	for v := 0; v < net.N(); v++ {
		for _, u := range net.Graph.Neighbors(v) {
			if int32(v) < u {
				out.Edges = append(out.Edges, [2]int32{int32(v), u})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadNetwork restores a network saved by SaveNetwork.
func LoadNetwork(r io.Reader) (*Network, error) {
	var in networkJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("bfskel: decode network: %w", err)
	}
	shape, err := ShapeByName(in.Shape)
	if err != nil {
		return nil, err
	}
	var model RadioModel
	switch in.Radio.Kind {
	case "udg":
		model = UDG{R: in.Radio.R}
	case "qudg":
		model = QUDG{R: in.Radio.R, Alpha: in.Radio.Alpha, P: in.Radio.P}
	case "lognormal":
		model = LogNormal{R: in.Radio.R, Epsilon: in.Radio.Epsilon}
	default:
		return nil, fmt.Errorf("bfskel: unknown radio kind %q", in.Radio.Kind)
	}
	pts := make([]Point, len(in.Points))
	for i, xy := range in.Points {
		pts[i] = Point{X: xy[0], Y: xy[1]}
	}
	g, err := graph.FromEdges(len(pts), in.Edges)
	if err != nil {
		return nil, fmt.Errorf("bfskel: network: %w", err)
	}
	return &Network{
		Spec:   NetworkSpec{Shape: shape, N: len(pts), Radio: model, KeepWholeGraph: true},
		Points: pts,
		Graph:  g,
		Radio:  model,
	}, nil
}

// resultJSON is the wire form of an extraction result's consumable parts.
type resultJSON struct {
	Params        Params       `json:"params"`
	Sites         []int32      `json:"sites"`
	SkeletonNodes []int32      `json:"skeletonNodes"`
	SkeletonEdges [][2]int32   `json:"skeletonEdges"`
	CycleRank     int          `json:"cycleRank"`
	Components    int          `json:"components"`
	CellOf        []int32      `json:"cellOf"`
	Boundary      []int32      `json:"boundary"`
	Loops         []loopJSON   `json:"loops"`
	Positions     [][2]float64 `json:"positions,omitempty"`
}

// loopJSON is the wire form of a classified loop.
type loopJSON struct {
	Kind  string  `json:"kind"`
	Sites []int32 `json:"sites"`
}

// WriteResultJSON exports the consumable artifacts of an extraction —
// skeleton structure, cells, boundary, loop classification — as JSON. When
// net is non-nil, node positions are included so external tools can draw
// the result.
func WriteResultJSON(net *Network, res *Result, w io.Writer) error {
	out := resultJSON{
		Params:        res.Params,
		Sites:         res.Sites,
		SkeletonNodes: res.Skeleton.Nodes(),
		CycleRank:     res.Skeleton.CycleRank(),
		Components:    res.Skeleton.Components(),
		CellOf:        res.CellOf,
		Boundary:      res.Boundary,
	}
	for _, v := range out.SkeletonNodes {
		for _, u := range res.Skeleton.Neighbors(v) {
			if v < u {
				out.SkeletonEdges = append(out.SkeletonEdges, [2]int32{v, u})
			}
		}
	}
	for _, l := range res.Loops {
		out.Loops = append(out.Loops, loopJSON{Kind: l.Kind.String(), Sites: l.Sites})
	}
	if net != nil {
		out.Positions = make([][2]float64, net.N())
		for i, p := range net.Points {
			out.Positions[i] = [2]float64{p.X, p.Y}
		}
	}
	return json.NewEncoder(w).Encode(out)
}
