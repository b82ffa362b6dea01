package bfskel

import (
	"fmt"
	"sort"
	"sync"

	"bfskel/internal/deploy"
	"bfskel/internal/obs"
)

// Scenario is one experiment configuration, typically taken from the
// paper's evaluation section.
type Scenario struct {
	// Figure tags the paper figure the scenario reproduces.
	Figure string
	// Name labels the row.
	Name string
	// ShapeName selects the deployment field.
	ShapeName string
	// N is the deployed node count; Deg the target average degree.
	N   int
	Deg float64
	// RadioKind selects "udg" (default), "qudg" or "lognormal".
	RadioKind string
	// QAlpha/QP parameterise QUDG; Eps parameterises log-normal. For
	// log-normal the base range is fixed at the UDG calibration for Deg
	// (the paper's Fig. 7 construction) and the measured degree rises
	// with Eps.
	QAlpha, QP, Eps float64
	// Accept optionally skews the deployment (Fig. 8).
	Accept func(Point) float64
	// Params overrides; zero means DefaultParams.
	Params Params
}

// ExperimentRow is one measured line of a figure reproduction.
type ExperimentRow struct {
	Figure   string
	Scenario string
	// Network facts.
	N      int
	AvgDeg float64
	// Pipeline facts.
	Sites     int
	SkelNodes int
	Cycles    int
	Holes     int
	Homotopy  bool
	// Quality metrics (field units; ratios dimensionless).
	ClearanceRatio   float64
	MedialCoverage   float64
	MeanDistToMedial float64
	// Stability vs. the figure's reference run (0 for the reference).
	Stability float64
	// Distributed cost (complexity experiment only).
	Messages, Rounds int
	// Notes carries experiment-specific extras.
	Notes string
	// Stats carries the extraction run's per-phase instrumentation (nil
	// for rows not produced by the staged engine, e.g. baselines).
	Stats *Stats `json:",omitempty"`
}

// String renders the row for the text harness.
func (r ExperimentRow) String() string {
	s := fmt.Sprintf("%-11s %-22s n=%-5d deg=%-5.2f sites=%-3d skel=%-4d cycles=%d/%d homotopy=%-5v clr=%.2f cov=%.2f dmed=%.2f",
		r.Figure, r.Scenario, r.N, r.AvgDeg, r.Sites, r.SkelNodes, r.Cycles, r.Holes, r.Homotopy,
		r.ClearanceRatio, r.MedialCoverage, r.MeanDistToMedial)
	if r.Stability > 0 {
		s += fmt.Sprintf(" stab=%.2f", r.Stability)
	}
	if r.Messages > 0 {
		s += fmt.Sprintf(" msgs=%d rounds=%d", r.Messages, r.Rounds)
	}
	if r.Notes != "" {
		s += " " + r.Notes
	}
	return s
}

// Fig4Scenarios are the ten fields of paper Fig. 4 with their published
// node counts and average degrees.
func Fig4Scenarios() []Scenario {
	mk := func(name, shape string, n int, deg float64) Scenario {
		return Scenario{Figure: "fig4", Name: name, ShapeName: shape, N: n, Deg: deg}
	}
	return []Scenario{
		mk("a-onehole", "onehole", 2734, 6.54),
		mk("b-flower", "flower", 2422, 5.75),
		mk("c-smile", "smile", 2924, 6.35),
		mk("d-music", "music", 1301, 6.5),
		mk("e-airplane", "airplane", 2157, 7.86),
		mk("f-cactus", "cactus", 2172, 6.70),
		mk("g-starhole", "starhole", 2893, 8.99),
		mk("h-spiral", "spiral", 2812, 9.60),
		mk("i-twoholes", "twoholes", 3346, 6.79),
		mk("j-star", "star", 1394, 6.59),
	}
}

// Fig1Scenario is the Window network of paper Fig. 1.
func Fig1Scenario() Scenario {
	return Scenario{Figure: "fig1", Name: "window", ShapeName: "window", N: 2592, Deg: 5.96}
}

// Fig5Degrees are the density-sweep average degrees of paper Fig. 5.
func Fig5Degrees() []float64 { return []float64{9.95, 14.24, 19.23, 22.72} }

// Fig7Epsilons are the log-normal epsilon values of paper Fig. 7.
func Fig7Epsilons() []float64 { return []float64{0, 1, 2, 3} }

// BuildScenario realises a scenario's network (jittered-grid layout — see
// DESIGN.md's substitution note: uniform deployments fragment below average
// degree ~7 under UDG, whereas the paper's networks are connected).
func BuildScenario(sc Scenario, seed int64) (*Network, error) {
	shape, err := ShapeByName(sc.ShapeName)
	if err != nil {
		return nil, err
	}
	spec := NetworkSpec{
		Shape:     shape,
		N:         sc.N,
		TargetDeg: sc.Deg,
		Seed:      seed,
		Layout:    LayoutGrid,
		Accept:    sc.Accept,
	}
	switch sc.RadioKind {
	case "", "udg":
	case "qudg":
		r := RadioRangeForDegree(shape.Poly.Area(), sc.N, sc.Deg)
		spec.Radio = QUDG{R: r, Alpha: sc.QAlpha, P: sc.QP}
	case "lognormal":
		// Calibrate a UDG range for Deg, then fix it and let the tail grow
		// the degree (paper Fig. 7 construction).
		probe, err := BuildNetwork(NetworkSpec{Shape: shape, N: sc.N, TargetDeg: sc.Deg, Seed: seed, Layout: LayoutGrid})
		if err != nil {
			return nil, err
		}
		udg, ok := probe.Radio.(UDG)
		if !ok {
			return nil, fmt.Errorf("probe radio is %T, want UDG", probe.Radio)
		}
		spec.Radio = LogNormal{R: udg.R, Epsilon: sc.Eps}
		spec.TargetDeg = 0
	default:
		return nil, fmt.Errorf("unknown radio kind %q", sc.RadioKind)
	}
	return BuildNetwork(spec)
}

// RunScenario builds the network and extracts the skeleton, with the
// scope's tracer and metrics attached to the extraction engine (one
// "extract" span tree per run; the zero scope records nothing).
func RunScenario(sc Scenario, seed int64, ob ObsScope) (*Network, *Result, error) {
	net, err := BuildScenario(sc, seed)
	if err != nil {
		return nil, nil, err
	}
	params := sc.Params
	if params.K == 0 {
		params = DefaultParams()
	}
	res, err := net.ExtractorObs(ob).Extract(params)
	if err != nil {
		return net, nil, fmt.Errorf("extract %s: %w", sc.Name, err)
	}
	return net, res, nil
}

// medialCache holds the expensive ground-truth medial axes, one per shape.
var medialCache sync.Map // string -> []MedialPoint

// cachedMedial returns the ground-truth medial axis for a shape.
func cachedMedial(name string) []MedialPoint {
	if v, ok := medialCache.Load(name); ok {
		if pts, ok := v.([]MedialPoint); ok {
			return pts
		}
	}
	pts := GroundTruthMedialAxis(MustShape(name))
	medialCache.Store(name, pts)
	return pts
}

// rowFor evaluates one finished run into a row.
func rowFor(sc Scenario, net *Network, res *Result) ExperimentRow {
	rep := Evaluate(net, res, cachedMedial(sc.ShapeName), 0)
	clr := 0.0
	if rep.NetworkClearance > 0 {
		clr = rep.MeanClearance / rep.NetworkClearance
	}
	return ExperimentRow{
		Figure:           sc.Figure,
		Scenario:         sc.Name,
		N:                net.N(),
		AvgDeg:           net.AvgDegree(),
		Sites:            len(res.Sites),
		SkelNodes:        rep.Nodes,
		Cycles:           rep.CycleRank,
		Holes:            rep.Holes,
		Homotopy:         rep.HomotopyOK,
		ClearanceRatio:   clr,
		MedialCoverage:   rep.MedialCoverage,
		MeanDistToMedial: rep.MeanDistToMedial,
		Stats:            res.Stats,
	}
}

// RunFigure reproduces one experiment (see DESIGN.md's experiment index)
// and returns its measured rows. Known figures: fig1, fig3, fig4, fig5,
// fig6, fig7, fig8, complexity, params, baselines, routing, ablation.
// With a tracer in the scope the whole experiment runs inside a "figure"
// span, every extraction emits its stage spans, and the complexity
// experiment runs its distributed phases with per-round and per-node
// recording.
func RunFigure(figure string, seed int64, ob ObsScope) (rows []ExperimentRow, err error) {
	span := ob.Tracer.StartSpan("figure", obs.Str("figure", figure), obs.Int64("seed", seed))
	defer func() {
		if err != nil {
			span.End(obs.Str("error", err.Error()))
			return
		}
		span.End(obs.Int("rows", len(rows)))
	}()
	switch figure {
	case "fig1":
		return runFig1(seed, ob)
	case "fig3":
		return runFig3(seed, ob)
	case "fig4":
		return runFig4(seed, ob)
	case "fig5":
		return runFig5(seed, ob)
	case "fig6":
		return runFig6(seed, ob)
	case "fig7":
		return runFig7(seed, ob)
	case "fig8":
		return runFig8(seed, ob)
	case "complexity":
		return runComplexity(seed, ob)
	case "params":
		return runParams(seed, ob)
	case "baselines":
		return runBaselines(seed, ob)
	case "routing":
		return runRouting(seed, ob)
	case "ablation":
		return runAblation(seed, ob)
	default:
		return nil, fmt.Errorf("unknown figure %q (known: %v)", figure, FigureNames())
	}
}

// FigureNames lists the implemented experiments.
func FigureNames() []string {
	names := []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"complexity", "params", "baselines", "routing", "ablation",
	}
	sort.Strings(names)
	return names
}

func runFig1(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	sc := Fig1Scenario()
	net, res, err := RunScenario(sc, seed, ob)
	if err != nil {
		return nil, err
	}
	row := rowFor(sc, net, res)
	row.Notes = fmt.Sprintf("segment=%d voronoi=%d fake=%d genuine=%d",
		len(res.SegmentNodes), len(res.VoronoiNodes), res.NumFakeLoops(), res.NumGenuineLoops())
	return []ExperimentRow{row}, nil
}

func runFig3(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	sc := Fig1Scenario()
	sc.Figure = "fig3"
	net, res, err := RunScenario(sc, seed, ob)
	if err != nil {
		return nil, err
	}
	seg := EvaluateSegmentation(res)
	prec, rec := BoundaryPrecisionRecall(net, res.Boundary, 0)
	row := rowFor(sc, net, res)
	row.Notes = fmt.Sprintf("cells=%d balance=%.2f assigned=%.2f boundaryP=%.2f boundaryR=%.2f",
		seg.Cells, seg.Balance, seg.Assigned, prec, rec)
	return []ExperimentRow{row}, nil
}

func runFig4(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	var rows []ExperimentRow
	for _, sc := range Fig4Scenarios() {
		net, res, err := RunScenario(sc, seed, ob)
		if err != nil {
			return rows, err
		}
		rows = append(rows, rowFor(sc, net, res))
	}
	return rows, nil
}

func runFig5(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	ref := Fig1Scenario()
	ref.Figure = "fig5"
	refNet, refRes, err := RunScenario(ref, seed, ob)
	if err != nil {
		return nil, err
	}
	refRow := rowFor(ref, refNet, refRes)
	refRow.Scenario = "window-5.96-ref"
	rows := []ExperimentRow{refRow}
	for _, deg := range Fig5Degrees() {
		sc := ref
		sc.Deg = deg
		sc.Name = fmt.Sprintf("window-%.2f", deg)
		net, res, err := RunScenario(sc, seed, ob)
		if err != nil {
			return rows, err
		}
		row := rowFor(sc, net, res)
		row.Stability = SkeletonStability(refNet, refRes, net, res)
		rows = append(rows, row)
	}
	return rows, nil
}

func runFig6(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	// QUDG alpha=0.4, p=0.3, range enlarged so the network stays overall
	// connected (the paper's setting); target degree ~8.3 realises that.
	mk := func(name, shape string, n int) Scenario {
		return Scenario{
			Figure: "fig6", Name: name, ShapeName: shape, N: n, Deg: 8.3,
			RadioKind: "qudg", QAlpha: 0.4, QP: 0.3,
		}
	}
	var rows []ExperimentRow
	for _, sc := range []Scenario{
		mk("a-window-qudg", "window", 2592),
		mk("b-star-qudg", "star", 1394),
	} {
		net, res, err := RunScenario(sc, seed, ob)
		if err != nil {
			return rows, err
		}
		rows = append(rows, rowFor(sc, net, res))
	}
	return rows, nil
}

func runFig7(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	var rows []ExperimentRow
	for _, eps := range Fig7Epsilons() {
		sc := Scenario{
			Figure: "fig7", Name: fmt.Sprintf("window-eps%.0f", eps),
			ShapeName: "window", N: 2592, Deg: 5.19,
			RadioKind: "lognormal", Eps: eps,
		}
		net, res, err := RunScenario(sc, seed, ob)
		if err != nil {
			return rows, err
		}
		rows = append(rows, rowFor(sc, net, res))
	}
	return rows, nil
}

func runFig8(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	wb := MustShape("window").Poly.Bounds()
	sb := MustShape("star").Poly.Bounds()
	scs := []Scenario{
		{
			Figure: "fig8", Name: "a-window-gradient", ShapeName: "window",
			N: 2592, Deg: 8.15,
			Accept: deploy.VerticalGradient(wb.Min.Y, wb.Max.Y, 0.45, 1.0),
		},
		{
			Figure: "fig8", Name: "b-star-halfplane", ShapeName: "star",
			N: 1394, Deg: 7.16,
			Accept: deploy.HalfPlane((sb.Min.X+sb.Max.X)/2, 0.65, 1.0),
		},
	}
	var rows []ExperimentRow
	for _, sc := range scs {
		net, res, err := RunScenario(sc, seed, ob)
		if err != nil {
			return rows, err
		}
		rows = append(rows, rowFor(sc, net, res))
	}
	return rows, nil
}

func runComplexity(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	var rows []ExperimentRow
	for _, n := range []int{648, 1296, 2592, 5184} {
		sc := Scenario{Figure: "complexity", Name: fmt.Sprintf("window-n%d", n), ShapeName: "window", N: n, Deg: 7}
		net, res, err := RunScenario(sc, seed, ob)
		if err != nil {
			return rows, err
		}
		dres, err := RunProtocolPhasesObs(net, res.EffectiveK, res.Params.L, res.EffectiveScope, res.Params.Alpha,
			ProtocolOptions{
				Tracer:        ob.Tracer,
				Metrics:       ob.Metrics,
				RecordPerNode: ob.Tracer != nil,
			})
		if err != nil {
			return rows, err
		}
		row := rowFor(sc, net, res)
		row.Messages = dres.TotalMessages()
		row.Rounds = dres.TotalRounds()
		bound := (res.Params.K + res.Params.L + 1) * net.N()
		row.Notes = fmt.Sprintf("msgs/(k+l+1)n=%.2f", float64(row.Messages)/float64(bound))
		rows = append(rows, row)
	}
	return rows, nil
}

func runParams(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	// One Fig. 1 network serves every parameter point (the deployment does
	// not depend on K/L), so the sweep runs as a batch over one pooled
	// extraction engine.
	base := Fig1Scenario()
	base.Figure = "params"
	net, err := BuildScenario(base, seed)
	if err != nil {
		return nil, err
	}
	kls := []int{2, 3, 4, 5, 6}
	scs := make([]Scenario, len(kls))
	items := make([]BatchItem, len(kls))
	for i, kl := range kls {
		sc := base
		sc.Name = fmt.Sprintf("window-k%d-l%d", kl, kl)
		params := DefaultParams()
		params.K, params.L = kl, kl
		sc.Params = params
		scs[i] = sc
		items[i] = BatchItem{Network: net, Params: params}
	}
	results, err := ExtractBatch(items, ob)
	if err != nil {
		return nil, err
	}
	rows := make([]ExperimentRow, len(results))
	for i, res := range results {
		rows[i] = rowFor(scs[i], net, res)
	}
	return rows, nil
}

func runBaselines(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	sc := Fig1Scenario()
	sc.Figure = "baselines"
	net, res, err := RunScenario(sc, seed, ob)
	if err != nil {
		return nil, err
	}
	medial := cachedMedial(sc.ShapeName)
	rows := []ExperimentRow{rowFor(sc, net, res)}
	rows[0].Scenario = "ours-boundary-free"

	// Every alternative runs through the backend registry: the boundary
	// consumers share the detected substrate via a static provider, and the
	// boundary-free local-separator backend rides the same seam.
	b := DetectBoundary(net)
	bp := BackendParams{Boundary: StaticBoundary(b), Tracer: ob.Tracer, Metrics: ob.Metrics}
	var mres *MAPResult
	var cres *CASEResult
	for _, entry := range []struct {
		backend string
		name    string
	}{
		{"map", "map-known-boundary"},
		{"case", "case-known-boundary"},
		{"localsep", "localsep-boundary-free"},
	} {
		bres, _, err := ExtractBackend(net, entry.backend, bp)
		if err != nil {
			return nil, err
		}
		switch native := bres.Native.(type) {
		case *MAPResult:
			mres = native
		case *CASEResult:
			cres = native
		}
		rep := Evaluate(net, &Result{Skeleton: bres.Skeleton, CellOf: res.CellOf}, medial, 0)
		clr := 0.0
		if rep.NetworkClearance > 0 {
			clr = rep.MeanClearance / rep.NetworkClearance
		}
		rows = append(rows, ExperimentRow{
			Figure: "baselines", Scenario: entry.name,
			N: net.N(), AvgDeg: net.AvgDegree(),
			SkelNodes: rep.Nodes, Cycles: rep.CycleRank, Holes: rep.Holes,
			ClearanceRatio: clr, MedialCoverage: rep.MedialCoverage,
			MeanDistToMedial: rep.MeanDistToMedial,
		})
	}

	// Noise sensitivity: promote interior nodes to fake boundary nodes and
	// measure medial-set inflation (the paper's criticism of MAP).
	noisy := DetectBoundary(net)
	// Noise nodes go at half the field's maximum clearance, i.e. well off
	// the real boundary.
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
	bn := BackendParams{Boundary: StaticBoundary(noisy)}
	mNoisy, _, err := ExtractBackend(net, "map", bn)
	if err != nil {
		return nil, err
	}
	cNoisy, _, err := ExtractBackend(net, "case", bn)
	if err != nil {
		return nil, err
	}
	mNoisyNodes := mNoisy.Native.(*MAPResult).MedialNodes
	cNoisyNodes := cNoisy.Native.(*CASEResult).SkeletonNodes
	rows = append(rows, ExperimentRow{
		Figure: "baselines", Scenario: "noise-inflation",
		N: net.N(), AvgDeg: net.AvgDegree(),
		Notes: fmt.Sprintf("map %d->%d nodes (+%.0f%%), case %d->%d (+%.0f%%), ours unaffected (no boundary input)",
			len(mres.MedialNodes), len(mNoisyNodes),
			inflation(len(mres.MedialNodes), len(mNoisyNodes)),
			len(cres.SkeletonNodes), len(cNoisyNodes),
			inflation(len(cres.SkeletonNodes), len(cNoisyNodes))),
	})
	return rows, nil
}

func inflation(before, after int) float64 {
	if before == 0 {
		return 0
	}
	return 100 * float64(after-before) / float64(before)
}

// runAblation isolates the implementation's design knobs (DESIGN.md's
// per-experiment index): the segment-node slack Alpha, the local-maximum
// scope, and branch pruning.
func runAblation(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	// Every knob variant runs on the same Fig. 1 network, so the whole
	// ablation is one batch over one pooled extraction engine.
	base := Fig1Scenario()
	base.Figure = "ablation"
	net, err := BuildScenario(base, seed)
	if err != nil {
		return nil, err
	}
	var scs []Scenario
	var items []BatchItem
	add := func(name string, mutate func(*Params)) {
		sc := base
		sc.Name = name
		params := DefaultParams()
		mutate(&params)
		sc.Params = params
		scs = append(scs, sc)
		items = append(items, BatchItem{Network: net, Params: params})
	}
	for _, alpha := range []int32{0, 1, 2} {
		a := alpha
		add(fmt.Sprintf("alpha=%d", a), func(p *Params) { p.Alpha = a })
	}
	for _, scope := range []int{2, 3, 4, 5} {
		sc := scope
		add(fmt.Sprintf("scope=%d", sc), func(p *Params) { p.LocalMaxScope = sc })
	}
	for _, prune := range []int{1, 0, 8} { // 1 = no pruning, 0 = auto, 8 = aggressive
		pl := prune
		name := fmt.Sprintf("prune=%d", pl)
		if pl == 0 {
			name = "prune=auto"
		}
		add(name, func(p *Params) { p.PruneLen = pl })
	}
	results, err := ExtractBatch(items, ob)
	if err != nil {
		return nil, err
	}
	rows := make([]ExperimentRow, len(results))
	for i, res := range results {
		row := rowFor(scs[i], net, res)
		row.Notes = fmt.Sprintf("segment=%d edges=%d", len(res.SegmentNodes), len(res.Edges))
		rows[i] = row
	}
	return rows, nil
}

func runRouting(seed int64, ob ObsScope) ([]ExperimentRow, error) {
	sc := Fig1Scenario()
	sc.Figure = "routing"
	net, res, err := RunScenario(sc, seed, ob)
	if err != nil {
		return nil, err
	}
	isBoundary := make([]bool, net.N())
	for _, v := range res.Boundary {
		isBoundary[v] = true
	}
	const pairs = 400
	sp := NewShortestPathRouter(net)
	spLoad, err := MeasureLoad(net, sp, pairs, seed, isBoundary)
	if err != nil {
		return nil, err
	}
	sk, err := NewSkeletonRouter(net, res.Skeleton)
	if err != nil {
		return nil, err
	}
	skLoad, err := MeasureLoad(net, sk, pairs, seed, isBoundary)
	if err != nil {
		return nil, err
	}
	mkRow := func(name string, l LoadReport) ExperimentRow {
		return ExperimentRow{
			Figure: "routing", Scenario: name, N: net.N(), AvgDeg: net.AvgDegree(),
			Notes: fmt.Sprintf("stretch=%.2f maxload=%d p99=%d boundaryShare=%.3f",
				l.MeanStretch, l.MaxLoad, l.P99Load, l.BoundaryShare),
		}
	}
	return []ExperimentRow{
		mkRow("shortest-path", spLoad),
		mkRow("skeleton-aided", skLoad),
	}, nil
}
