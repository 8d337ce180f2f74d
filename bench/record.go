package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported number; the unit travels with it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced. The last line
// of standard output carries only the four contract keys (see line); the
// whole record goes to bench/out/ and into the -all run record.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Segments are a metric's values over consecutive parts of its timed
	// loop (or its repeated timings), Spread their interquartile distance
	// over their median.
	Segments map[string]segments `json:"segments,omitempty"`
	Spread   map[string]float64  `json:"spread,omitempty"`
	Samples  map[string]int      `json:"samples,omitempty"` // sample count behind each percentile
	Phases   map[string]float64  `json:"phase_seconds,omitempty"`
	Info     map[string]float64  `json:"info,omitempty"` // calibration aids: utilisation, rates, counts
	Failures []string            `json:"failures,omitempty"`
	WallS    float64             `json:"wall_seconds"`
}

func newResult(workload string, seed int64, seconds float64, traced bool) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics:  map[string]metricValue{},
		Segments: map[string]segments{},
		Spread:   map[string]float64{},
		Samples:  map[string]int{},
		Phases:   map[string]float64{},
		Info:     map[string]float64{},
	}
}

var (
	e2eDefs   = defByName(endToEnd)
	layerDefs = defByName(perLayer)
)

// set records a metric by its registered name; an unregistered name is a
// bug in the benchmark.
func (r *runResult) set(name string, v float64) {
	d, ok := e2eDefs[name]
	if !ok {
		d, ok = layerDefs[name]
	}
	if !ok {
		panic("bench: unregistered metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

// setSegments records the median of a few repeated timings (set-ups,
// recoveries) with the timings and their spread.
func (r *runResult) setSegments(name string, s segments) {
	r.setSliced(name, s.median(), s, len(s))
}

// setSliced records a value computed over a whole timed loop together with
// the same value over each consecutive part of the loop, their spread, and
// how many samples are behind it.
func (r *runResult) setSliced(name string, v float64, parts segments, samples int) {
	r.set(name, v)
	r.Segments[name] = parts
	if sp := parts.spread(); !math.IsNaN(sp) {
		r.Spread[name] = sp
	}
	r.Samples[name] = samples
}

func (r *runResult) phase(name string, start time.Time) {
	r.Phases[name] += time.Since(start).Seconds()
}

// ops adds attempted and failed operations.
func (r *runResult) ops(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *runResult) failf(format string, args ...any) {
	r.Failed++
	r.Attempted++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills in the metrics a run did not measure — only legal for
// per-layer metrics of layers the workload bypasses, which report 0 — and
// checks that the set is exactly the one the contract names.
func (r *runResult) finish() {
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	out := make(map[string]metricValue, len(want))
	for _, d := range want {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Traced {
				r.failf("end-to-end metric %s was not measured", d.Name)
			}
			mv = metricValue{Unit: d.Unit}
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			r.failf("metric %s is %v", d.Name, mv.Value)
			mv.Value = 0
		}
		if !r.Traced && mv.Value == 0 {
			r.failf("end-to-end metric %s is 0", d.Name)
		}
		out[d.Name] = mv
	}
	r.Metrics = out
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
}

// line is the contract's last line of standard output.
func (r *runResult) line() string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print writes every metric by name with its unit, for people.
func (r *runResult) print(w *os.File) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0fs measured, %.1fs wall) correct=%v attempted=%d failed=%d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.WallS, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := r.Metrics[n]
		extra := ""
		if s, ok := r.Spread[n]; ok {
			extra = fmt.Sprintf("  (%d parts, spread %.1f%%)", len(r.Segments[n]), 100*s)
		}
		if c, ok := r.Samples[n]; ok {
			extra += fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s%s\n", n, mv.Value, mv.Unit, extra)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// hostInfo identifies where and on what a record was measured.
type hostInfo struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	OS         string `json:"os"`
}

func thisHost(root string) hostInfo {
	h, _ := os.Hostname()
	return hostInfo{
		Host: h, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(root), OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// gitCommit reads the checked-out commit without running git (the
// driver's checkout is not a repository; then it is "unknown").
func gitCommit(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(root + "/.git/" + ref)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return s
}

// runRecord is the file `-all` writes and `-compare` reads.
type runRecord struct {
	Host    hostInfo     `json:"host"`
	Started string       `json:"started"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
