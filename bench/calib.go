package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On a shared virtual machine, other tenants' load slows this benchmark's
// operations by up to 50% for minutes at a time (measured on a 2-vCPU Xeon
// VM), with CPU time rising in step with wall time. Over ten runs that
// spreads per-run medians by 15-38%, far wider than a useful
// regression bound. So each run also times a fixed reference kernel every
// calibEvery, and every timing is reported at the reference's nominal
// speed: multiplied by calibNominalMs over the mean of the reference times
// measured just before and just after it. Both slow down together, so the
// reported figures spread by 3-11% instead.
//
// The kernel is the benchmark's own code, never the library's, so a change
// to the library moves the reported timings exactly as it moves the raw
// ones. calib.ref_ms reports the run's median reference time; a raw timing
// is its reported value times calib.ref_ms / calibNominalMs, give or take
// the drift within the run.

// calibNominalMs is the reference time all timings are reported at: a round
// figure near the kernel's median on the 2-vCPU Intel Xeon VM the bounds
// were measured on, when that machine was quiet (the per-run median ranged
// over 6-14 ms there, GOMAXPROCS=2). It sets the scale only; on another
// machine the reported timings keep their ratios.
const calibNominalMs = 8.0

// calibEvery is the least time between two reference measurements; the
// kernel takes about 10 ms, so it costs about 4% of a run.
const calibEvery = 250 * time.Millisecond

// The kernel: truncated breadth-first searches from fixed sources over a
// triangulated 512x512 grid (a 9 MB working set), split across GOMAXPROCS
// goroutines like the library's parallel flood kernels. The reference time
// is the mean of the workers' times, not the time until the slower one
// finishes: when one vCPU alone slows down, the slower worker's time
// overstates the slowdown of the workloads, whose operations spend 20-47%
// of their time on one core (runtime.*.idle_core_frac). Its arrays live
// outside the Go heap, so they do not move the collector's pacing or the
// workloads' peak RSS by more than their own size.
const (
	calibSide    = 512
	calibSources = 900
	calibRadius  = 12
)

type calibrator struct {
	off, adj []int32
	dist     [][]int32 // per worker; every entry -1 between searches
	queue    [][]int32 // per worker
	last     time.Time
	refs     []refPoint
}

// refPoint is one reference measurement: its midpoint and the workers'
// mean time.
type refPoint struct {
	at time.Time
	ms float64
}

func newCalibrator() (*calibrator, error) {
	n := calibSide * calibSide
	c := &calibrator{}
	var err error
	if c.off, err = offHeap(n + 1); err != nil {
		return nil, err
	}
	if c.adj, err = offHeap(6 * n); err != nil {
		return nil, err
	}
	c.adj = c.adj[:0]
	for v := 0; v < n; v++ {
		x, y := v%calibSide, v/calibSide
		for _, d := range [6][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}} {
			if xx, yy := x+d[0], y+d[1]; xx >= 0 && yy >= 0 && xx < calibSide && yy < calibSide {
				c.adj = append(c.adj, int32(yy*calibSide+xx))
			}
		}
		c.off[v+1] = int32(len(c.adj))
	}
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		dist, err := offHeap(n)
		if err != nil {
			return nil, err
		}
		for i := range dist {
			dist[i] = -1
		}
		c.dist = append(c.dist, dist)
		c.queue = append(c.queue, make([]int32, 0, 1024))
	}
	return c, nil
}

// offHeap maps an anonymous, zeroed int32 array outside the Go heap. It
// lives until the process exits.
func offHeap(n int) ([]int32, error) {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map calibration buffer: %w", err)
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
}

// tick measures the reference when calibEvery has passed since the last
// measurement.
func (c *calibrator) tick() {
	if time.Since(c.last) >= calibEvery {
		c.measure()
	}
}

// measure times the reference kernel once.
func (c *calibrator) measure() {
	var wg sync.WaitGroup
	took := make([]time.Duration, len(c.dist))
	t0 := time.Now() //lint:allow determinism benchmark timing
	for k := range c.dist {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			start := time.Now() //lint:allow determinism benchmark timing
			c.search(k)
			took[k] = time.Since(start)
		}(k)
	}
	wg.Wait()
	d := time.Since(t0)
	c.last = t0.Add(d)
	var sum time.Duration
	for _, t := range took {
		sum += t
	}
	mean := float64(sum) / float64(len(took)) / float64(time.Millisecond)
	c.refs = append(c.refs, refPoint{at: t0.Add(d / 2), ms: mean})
}

// search runs one worker's share of the reference searches.
func (c *calibrator) search(k int) {
	n := len(c.off) - 1
	dist, queue := c.dist[k], c.queue[k]
	for i := 0; i < calibSources; i++ {
		src := int32((i*2654435761 + k*7919) % n)
		queue = append(queue[:0], src)
		dist[src] = 0
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			if dist[v] == calibRadius {
				continue
			}
			for _, w := range c.adj[c.off[v]:c.off[v+1]] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}
	c.queue[k] = queue
}

// factor is the scale applied to a timing measured around at: the nominal
// reference time over the mean of the measurements just before and just
// after at (the nearest one alone at either end of the run).
func (c *calibrator) factor(at time.Time) float64 {
	i := sort.Search(len(c.refs), func(i int) bool { return !c.refs[i].at.Before(at) })
	var sum float64
	var n int
	for _, j := range []int{i - 1, i} {
		if j >= 0 && j < len(c.refs) {
			sum += c.refs[j].ms
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return calibNominalMs / (sum / float64(n))
}

// medianMs is the run's median reference time.
func (c *calibrator) medianMs() float64 {
	ms := make([]float64, len(c.refs))
	for i, p := range c.refs {
		ms[i] = p.ms
	}
	return Median(ms)
}
