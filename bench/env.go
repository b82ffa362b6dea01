package bench

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Header records where and on what a run was measured.
type Header struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

// newHeader describes the current process and checkout.
func newHeader(seed int64) Header {
	return Header{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Commit:     gitCommit(),
	}
}

// procField returns the value of the first "key: value" line starting with
// key in a /proc text file, or "" when the file or key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// peakRSSMB is this process's peak resident set size (VmHWM) in MiB, or 0
// where /proc is unavailable. Each workload runs in its own process, so the
// figure belongs to that workload alone.
func peakRSSMB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// gitCommit resolves HEAD of the git checkout enclosing the working
// directory by reading .git directly, or returns "unknown" outside one.
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		gitDir := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(gitDir, "HEAD")); err == nil {
			return resolveRef(gitDir, strings.TrimSpace(string(head)))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func resolveRef(gitDir, head string) string {
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached HEAD holds the hash itself
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
