package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// quartiles mirrors Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), which is what the driver's spread check uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median, the
// steadiness measure of the benchmark contract.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 || math.IsNaN(q2) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// latencies collects raw nanosecond samples; percentiles are exact.
type latencies struct{ ns []int64 }

func newLatencies(capacity int) *latencies { return &latencies{ns: make([]int64, 0, capacity)} }

func (l *latencies) add(ns int64) { l.ns = append(l.ns, ns) }
func (l *latencies) count() int   { return len(l.ns) }

func (l *latencies) floats() []float64 {
	f := make([]float64, len(l.ns))
	for i, v := range l.ns {
		f[i] = float64(v)
	}
	return f
}

// us returns the p-th percentile in microseconds.
func (l *latencies) us(p float64) float64 {
	f := l.floats()
	sort.Float64s(f)
	return percentile(f, p) / 1e3
}

// segments holds one value per equal wall-clock slice of a timed phase.
// The reported number is the median slice, so a burst of host noise that
// hits one or two slices does not move it.
type segments []float64

func (s segments) median() float64 { return median(s) }
func (s segments) spread() float64 { return spread(s) }
