package bfskel

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func testNetwork(t testing.TB, shape string, n int, deg float64, seed int64) *Network {
	t.Helper()
	net, err := BuildNetwork(NetworkSpec{
		Shape: MustShape(shape), N: n, TargetDeg: deg, Seed: seed, Layout: LayoutGrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildNetworkErrors(t *testing.T) {
	if _, err := BuildNetwork(NetworkSpec{N: 10}); err != ErrNoShape {
		t.Errorf("missing shape err = %v", err)
	}
	if _, err := BuildNetwork(NetworkSpec{Shape: MustShape("star"), N: 0}); err == nil {
		t.Error("zero N accepted")
	}
}

func TestBuildNetworkCalibration(t *testing.T) {
	for _, deg := range []float64{6, 12, 20} {
		net := testNetwork(t, "window", 2000, deg, 1)
		if got := net.AvgDegree(); math.Abs(got-deg)/deg > 0.05 {
			t.Errorf("target %v: realised degree %.2f", deg, got)
		}
	}
}

func TestBuildNetworkLayouts(t *testing.T) {
	grid := testNetwork(t, "star", 1000, 7, 1)
	uni, err := BuildNetwork(NetworkSpec{
		Shape: MustShape("star"), N: 1000, TargetDeg: 7, Seed: 1, Layout: LayoutUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if grid.N() == 0 || uni.N() == 0 {
		t.Fatal("empty networks")
	}
	// Grid layouts retain nearly every node at this degree.
	if float64(grid.N()) < 0.97*1000 {
		t.Errorf("grid kept %d of 1000", grid.N())
	}
	for _, p := range grid.Points {
		if !grid.Spec.Shape.Poly.Contains(p) {
			t.Fatalf("node outside the field: %v", p)
		}
	}
}

func TestBuildNetworkKeepWhole(t *testing.T) {
	whole, err := BuildNetwork(NetworkSpec{
		Shape: MustShape("window"), N: 2000, TargetDeg: 5, Seed: 1, KeepWholeGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if whole.N() != 2000 {
		t.Errorf("KeepWholeGraph dropped nodes: %d", whole.N())
	}
}

func TestBuildNetworkExplicitRadio(t *testing.T) {
	net, err := BuildNetwork(NetworkSpec{
		Shape: MustShape("star"), N: 800, Seed: 1, Layout: LayoutGrid,
		Radio: UDG{R: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	udg, ok := net.Radio.(UDG)
	if !ok || udg.R != 4 {
		t.Errorf("explicit radio was modified: %v", net.Radio)
	}
	// With TargetDeg set, the explicit model is calibrated.
	cal, err := BuildNetwork(NetworkSpec{
		Shape: MustShape("star"), N: 800, Seed: 1, Layout: LayoutGrid,
		Radio: QUDG{R: 2, Alpha: 0.4, P: 0.3}, TargetDeg: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cal.AvgDegree(); math.Abs(got-8) > 0.8 {
		t.Errorf("calibrated QUDG degree = %.2f, want ~8", got)
	}
}

func TestRadioRangeForDegree(t *testing.T) {
	if got := RadioRangeForDegree(0, 10, 5); got != 0 {
		t.Errorf("zero area = %v", got)
	}
	r := RadioRangeForDegree(10000, 1000, 8)
	want := math.Sqrt(8 * 10000 / (math.Pi * 1000))
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("range = %v, want %v", r, want)
	}
}

func TestShapeLookup(t *testing.T) {
	if _, err := ShapeByName("nonesuch"); err == nil {
		t.Error("unknown shape accepted")
	}
	if len(ShapeNames()) != 11 {
		t.Errorf("shapes = %v", ShapeNames())
	}
}

func TestRenderStages(t *testing.T) {
	net := testNetwork(t, "star", 600, 7, 1)
	res, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	stages := []RenderStage{
		StageNetwork, StageSites, StageSegments, StageCoarse,
		StageFinal, StageCells, StageBoundary,
	}
	for _, st := range stages {
		var svg, png bytes.Buffer
		if err := RenderResult(net, res, st, &svg); err != nil {
			t.Errorf("svg stage %d: %v", st, err)
		}
		if !strings.Contains(svg.String(), "<svg") {
			t.Errorf("stage %d produced no SVG", st)
		}
		if err := RenderResultPNG(net, res, st, &png); err != nil {
			t.Errorf("png stage %d: %v", st, err)
		}
		if png.Len() == 0 {
			t.Errorf("stage %d produced no PNG", st)
		}
	}
	var buf bytes.Buffer
	if err := RenderResult(net, res, RenderStage(99), &buf); err == nil {
		t.Error("unknown stage accepted")
	}
	if err := RenderResultPNG(net, res, RenderStage(99), &buf); err == nil {
		t.Error("unknown PNG stage accepted")
	}
	if err := RenderNetwork(net, &buf); err != nil {
		t.Errorf("RenderNetwork: %v", err)
	}
}

func TestAnalysisWrappers(t *testing.T) {
	net := testNetwork(t, "onehole", 1500, 7, 1)
	res, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	medial := GroundTruthMedialAxis(net.Spec.Shape)
	if len(medial) == 0 {
		t.Fatal("no medial ground truth")
	}
	rep := Evaluate(net, res, medial, 0)
	if rep.Holes != 1 {
		t.Errorf("holes = %d", rep.Holes)
	}
	seg := EvaluateSegmentation(res)
	if seg.Cells != len(res.Sites) {
		t.Errorf("cells = %d, sites = %d", seg.Cells, len(res.Sites))
	}
	p, r := BoundaryPrecisionRecall(net, res.Boundary, 0)
	if p <= 0 || p > 1 || r <= 0 || r > 1 {
		t.Errorf("boundary PR = %v, %v", p, r)
	}
	if s := SkeletonStability(net, res, net, res); s != 0 {
		t.Errorf("self-stability = %v", s)
	}
	b := DetectBoundary(net)
	if len(b.Nodes) == 0 {
		t.Error("no boundary detected")
	}
	bp := BackendParams{Boundary: StaticBoundary(b)}
	m, _, err := ExtractBackend(net, "map", bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Native.(*MAPResult).MedialNodes) == 0 {
		t.Error("MAP found nothing")
	}
	c, _, err := ExtractBackend(net, "case", bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Native.(*CASEResult).SkeletonNodes) == 0 {
		t.Error("CASE found nothing")
	}
	d, err := RunProtocolPhases(net, res.EffectiveK, res.Params.L, res.EffectiveScope, res.Params.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalMessages() == 0 || d.TotalRounds() == 0 {
		t.Error("distributed run reported no cost")
	}
}

func TestScenarioMachinery(t *testing.T) {
	if len(Fig4Scenarios()) != 10 {
		t.Errorf("Fig4Scenarios = %d", len(Fig4Scenarios()))
	}
	if len(Fig5Degrees()) != 4 || len(Fig7Epsilons()) != 4 {
		t.Error("sweep tables wrong")
	}
	if _, err := RunFigure("nonesuch", 1); err == nil {
		t.Error("unknown figure accepted")
	}
	if len(FigureNames()) != 12 {
		t.Errorf("figures = %v", FigureNames())
	}
	// One real figure end to end.
	rows, err := RunFigure("fig1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Homotopy {
		t.Errorf("fig1 rows = %+v", rows)
	}
	if rows[0].String() == "" {
		t.Error("empty row string")
	}
}

func TestBadScenario(t *testing.T) {
	if _, err := BuildScenario(Scenario{ShapeName: "nope", N: 10, Deg: 6}, 1); err == nil {
		t.Error("unknown shape scenario accepted")
	}
	if _, err := BuildScenario(Scenario{ShapeName: "star", N: 100, Deg: 6, RadioKind: "warp"}, 1); err == nil {
		t.Error("unknown radio kind accepted")
	}
}

func TestSegmentationFacade(t *testing.T) {
	net := testNetwork(t, "cactus", 1800, 7, 1)
	res, err := net.Extract(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cells := SegmentByCells(res, 9)
	if cells.NumSegments() < 2 {
		t.Errorf("cell segmentation: %d segments", cells.NumSegments())
	}
	flow := SegmentByFlow(net, res.Boundary, 6)
	if flow.NumSegments() < 2 {
		t.Errorf("flow segmentation: %d segments", flow.NumSegments())
	}
	// Both label every node that the other labels (full assignment).
	for v := 0; v < net.N(); v++ {
		if cells.SegmentOf[v] < 0 {
			t.Fatalf("cell segmentation left node %d unassigned", v)
		}
	}
}
