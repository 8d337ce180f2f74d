package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The comparer: one row per workload × end-to-end metric with both
// medians, the metric's bound and a verdict, and the per-layer deltas
// beneath each workload.

const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// side is one record's values of one metric on one workload.
type side struct {
	median, spread float64
	n              int
}

// collect gathers metric → values over a record's runs of one workload and
// mode. With four or more runs the spread is the interquartile distance of
// the runs' values over their median; with fewer it is the largest
// within-run segment spread, which is all there is.
func collect(rec *runRecord, workload string, traced bool) map[string]side {
	vals := map[string][]float64{}
	within := map[string]float64{}
	for _, r := range rec.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		for name, mv := range r.Metrics {
			vals[name] = append(vals[name], mv.Value)
			if s, ok := r.Spread[name]; ok && s > within[name] {
				within[name] = s
			}
		}
	}
	out := map[string]side{}
	for name, v := range vals {
		s := side{median: median(v), n: len(v), spread: within[name]}
		if len(v) >= 4 {
			s.spread = spread(v)
		}
		out[name] = s
	}
	return out
}

// verdict judges b against a for a metric with the given direction and
// bound. A side whose own spread exceeds the bound cannot resolve a
// difference of that size.
func verdict(a, b side, better string, bound float64) (string, float64) {
	if a.median == 0 {
		return verdictUnresolved, 0
	}
	change := (b.median - a.median) / a.median // >0 means b is larger
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case a.spread > bound || b.spread > bound:
		return verdictUnresolved, change
	case worse > bound:
		return verdictWorse, change
	case worse < -bound:
		return verdictBetter, change
	default:
		return verdictWithin, change
	}
}

func loadRecord(path string) (*runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec runRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareRecords prints the comparison and returns the exit code: 1 when
// any end-to-end metric is worse than its bound allows, else 0.
func compareRecords(pathA, pathB string, w io.Writer) int {
	a, err := loadRecord(pathA)
	if err == nil {
		var b *runRecord
		if b, err = loadRecord(pathB); err == nil {
			return printComparison(a, b, w)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(a, b *runRecord, w io.Writer) int {
	fmt.Fprintf(w, "A: %s %s go=%s nproc=%d commit=%s\n", a.Started, a.Host.Host, a.Host.GoVersion, a.Host.NProc, a.Host.Commit)
	fmt.Fprintf(w, "B: %s %s go=%s nproc=%d commit=%s\n", b.Started, b.Host.Host, b.Host.GoVersion, b.Host.NProc, b.Host.Commit)
	code := 0
	for _, wl := range allWorkloads() {
		ea, eb := collect(a, wl.Name, false), collect(b, wl.Name, false)
		if len(ea) == 0 && len(eb) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-24s %14s %14s %8s %7s %8s  %s\n", wl.Name, "end-to-end", "A median", "B median", "change", "bound", "spread", "verdict")
		for _, d := range endToEnd {
			sa, oka := ea[d.Name]
			sb, okb := eb[d.Name]
			if !oka || !okb {
				continue
			}
			v, change := verdict(sa, sb, d.Better, d.Bound)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "  %-24s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%%  %s\n",
				d.Name, sa.median, sb.median, 100*change, 100*d.Bound, 100*max(sa.spread, sb.spread), v)
		}
		la, lb := collect(a, wl.Name, true), collect(b, wl.Name, true)
		var names []string
		for name := range la {
			if _, ok := lb[name]; ok && (la[name].median != 0 || lb[name].median != 0) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "  %-36s %14s %14s %8s\n", "per-layer", "A", "B", "change")
		}
		for _, name := range names {
			change := 0.0
			if la[name].median != 0 {
				change = 100 * (lb[name].median - la[name].median) / la[name].median
			}
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %+7.1f%%\n", name, la[name].median, lb[name].median, change)
		}
	}
	return code
}
