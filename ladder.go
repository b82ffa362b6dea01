package bfskel

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bfskel/internal/skeleton"
)

// LadderRung is one row of the scale ladder (see RunLadder).
type LadderRung = skeleton.LadderRung

// LadderConfig parameterises a scale-ladder run.
type LadderConfig struct {
	// Shape names the deployment field (default "window").
	Shape string
	// Sizes are the requested node counts, run in order (ascending keeps
	// the per-rung peak-RSS numbers meaningful).
	Sizes []int
	// TargetDeg is the average degree every rung is calibrated to
	// (default 7).
	TargetDeg float64
	// Seed is the deployment/link seed.
	Seed int64
	// Params are the extraction parameters; the zero value means
	// DefaultParams.
	Params Params
}

// RunLadder probes extraction capacity across network sizes: per rung it
// builds one field, runs one extraction, and records build/extract wall
// time, the per-stage breakdown, and the process peak RSS. A failing rung
// records its error and the ladder continues — capacity probes should
// report how far they got, not die at the first out-of-reach size.
func RunLadder(cfg LadderConfig) ([]LadderRung, error) {
	if cfg.Shape == "" {
		cfg.Shape = "window"
	}
	if cfg.TargetDeg == 0 {
		cfg.TargetDeg = 7
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	shape, err := ShapeByName(cfg.Shape)
	if err != nil {
		return nil, err
	}
	rungs := make([]LadderRung, 0, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		rung := LadderRung{Shape: cfg.Shape, N: n}
		buildStart := time.Now() //lint:allow determinism LadderRung.BuildMs is wall-clock timing, not part of the result
		net, err := BuildNetwork(NetworkSpec{
			Shape: shape, N: n, TargetDeg: cfg.TargetDeg,
			Seed: cfg.Seed, Layout: LayoutGrid,
		})
		rung.BuildMs = float64(time.Since(buildStart)) / float64(time.Millisecond)
		if err != nil {
			rung.Err = fmt.Sprintf("build: %v", err)
			rungs = append(rungs, rung)
			continue
		}
		rung.Nodes = net.N()
		rung.AvgDeg = net.AvgDegree()
		extractStart := time.Now() //lint:allow determinism LadderRung.ExtractMs is wall-clock timing, not part of the result
		res, err := net.Extract(cfg.Params)
		rung.ExtractMs = float64(time.Since(extractStart)) / float64(time.Millisecond)
		rung.PeakRSSMB = PeakRSSMB()
		if err != nil {
			rung.Err = fmt.Sprintf("extract: %v", err)
			rungs = append(rungs, rung)
			continue
		}
		if st := res.Stats; st != nil {
			rung.StageMs = make(map[string]float64, len(st.Phases))
			for _, ph := range st.Phases {
				rung.StageMs[ph.Name] = float64(ph.Duration) / float64(time.Millisecond)
			}
		}
		rung.Sites = len(res.Sites)
		rung.SkelNodes = res.Skeleton.NumNodes()
		rungs = append(rungs, rung)
	}
	return rungs, nil
}

// PeakRSSMB returns the process peak resident set size in MiB (VmHWM from
// /proc/self/status), or 0 where the proc filesystem is unavailable.
func PeakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
