// Command netgen generates and inspects simulated sensor networks: node
// counts, realised degrees, connectivity, hop diameter, and optional
// network renders — useful for choosing scenario parameters.
//
// Usage:
//
//	netgen -shape spiral -n 2812 -deg 9.6 -seed 1 -svg spiral.svg
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bfskel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		shapeName = flag.String("shape", "window", "deployment field")
		n         = flag.Int("n", 2592, "number of deployed nodes")
		deg       = flag.Float64("deg", 6, "target average degree")
		seed      = flag.Int64("seed", 1, "deployment/link seed")
		uniform   = flag.Bool("uniform", false, "uniform-random layout instead of jittered grid")
		whole     = flag.Bool("whole", false, "keep the whole graph (not just the largest component)")
		svgPath   = flag.String("svg", "", "write the network as SVG")
		pngPath   = flag.String("png", "", "write the network as PNG")
	)
	flag.Parse()

	shape, err := bfskel.ShapeByName(*shapeName)
	if err != nil {
		return err
	}
	layout := bfskel.LayoutGrid
	if *uniform {
		layout = bfskel.LayoutUniform
	}
	buildStart := time.Now() //lint:allow determinism build wall-time report; network content is keyed by Seed
	net, err := bfskel.BuildNetwork(bfskel.NetworkSpec{
		Shape: shape, N: *n, TargetDeg: *deg, Seed: *seed,
		Layout: layout, KeepWholeGraph: *whole,
	})
	buildMs := float64(time.Since(buildStart)) / float64(time.Millisecond)
	if err != nil {
		return err
	}

	fmt.Printf("shape=%s (%d holes, area %.0f)\n", shape.Name, shape.Holes(), shape.Poly.Area())
	fmt.Printf("nodes=%d (of %d deployed) avg.deg=%.2f connected=%v\n",
		net.N(), *n, net.AvgDegree(), net.Graph.IsConnected())
	fmt.Printf("radio=%v hop-diameter>=%d\n", net.Radio, net.Graph.DiameterLowerBound(0))
	fmt.Printf("build=%.1fms peak-rss=%.1fMB\n", buildMs, peakRSSMB())

	write := func(path string, render func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		renderErr := render(f)
		if closeErr := f.Close(); renderErr == nil {
			renderErr = closeErr
		}
		if renderErr != nil {
			return renderErr
		}
		fmt.Println("wrote", path)
		return nil
	}
	if *svgPath != "" {
		if err := write(*svgPath, func(f *os.File) error {
			return bfskel.RenderNetwork(net, f)
		}); err != nil {
			return err
		}
	}
	if *pngPath != "" {
		if err := write(*pngPath, func(f *os.File) error {
			return bfskel.RenderResultPNG(net, nil, bfskel.StageNetwork, f)
		}); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB returns the process peak resident set size in MiB (VmHWM from
// /proc/self/status), or 0 where the proc filesystem is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmHWM:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
