package agg

import (
	"math"
	"sort"
)

// The paper notes (§2.1) that holistic aggregates like TOP-K benefit less
// from partial-aggregate sharing because their PAOs grow with the input,
// but that "approximate versions of holistic aggregates can still benefit
// from our optimizations". This file provides two such approximations with
// bounded-size PAOs:
//
//   - ApproxTopK: a Count-Min sketch plus a bounded heavy-hitter candidate
//     list. Linear (cell-wise addable and subtractable), so it supports
//     negative edges and windows, with one-sided overestimation error
//     bounded by the sketch dimensions.
//   - ApproxDistinct: a counting Bloom filter with the linear-counting
//     estimator. Also linear, unlike HyperLogLog, so window expiry and
//     negative edges remain exact operations on the sketch.

// cmHash mixes a value with a row seed (same splitmix64 finalizer as the
// shingle package).
func cmHash(x uint64, seed uint64) uint64 {
	z := x + seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ApproxTopK approximates the k most frequent values with a Count-Min
// sketch of Depth rows × Width counters and a candidate list of up to
// Candidates heavy hitters. The overestimation error per frequency is at
// most 2N/Width with probability 1-2^-Depth (standard CM bounds), where N
// is the window mass.
type ApproxTopK struct {
	K          int
	Width      int // counters per row (default 512)
	Depth      int // rows (default 4)
	Candidates int // tracked heavy-hitter values (default 8*K)
}

func (t ApproxTopK) params() (k, w, d, c int) {
	k, w, d, c = t.K, t.Width, t.Depth, t.Candidates
	if k <= 0 {
		k = 3
	}
	if w <= 0 {
		w = 512
	}
	if d <= 0 {
		d = 4
	}
	if c <= 0 {
		c = 8 * k
	}
	return
}

// Name implements Aggregate.
func (ApproxTopK) Name() string { return "topk~" }

// Props implements Aggregate: linear sketches subtract exactly, so negative
// edges are legal; the result itself is approximate.
func (ApproxTopK) Props() Properties {
	return Properties{Subtractable: true}
}

// NewPAO implements Aggregate.
func (t ApproxTopK) NewPAO() PAO {
	k, w, d, c := t.params()
	return &cmPAO{k: k, width: w, depth: d, maxCand: c}
}

type cmPAO struct {
	k, width, depth, maxCand int
	cells                    []int64 // depth*width, row-major; nil until first use
	cand                     map[int64]struct{}
}

func (p *cmPAO) init() {
	if p.cells == nil {
		p.cells = make([]int64, p.width*p.depth)
		p.cand = make(map[int64]struct{}, p.maxCand)
	}
}

func (p *cmPAO) bump(v int64, delta int64) {
	p.init()
	for r := 0; r < p.depth; r++ {
		idx := r*p.width + int(cmHash(uint64(v), uint64(r+1))%uint64(p.width))
		p.cells[idx] += delta
	}
}

// estimate returns the CM point estimate (row minimum).
func (p *cmPAO) estimate(v int64) int64 {
	if p.cells == nil {
		return 0
	}
	var est int64
	for r := 0; r < p.depth; r++ {
		idx := r*p.width + int(cmHash(uint64(v), uint64(r+1))%uint64(p.width))
		c := p.cells[idx]
		if r == 0 || c < est {
			est = c
		}
	}
	if est < 0 {
		return 0
	}
	return est
}

// admit keeps the candidate set bounded by evicting the lowest-estimate
// entry when full.
func (p *cmPAO) admit(v int64) {
	if _, ok := p.cand[v]; ok {
		return
	}
	if len(p.cand) < p.maxCand {
		p.cand[v] = struct{}{}
		return
	}
	est := p.estimate(v)
	var worst int64
	worstEst := int64(-1)
	for c := range p.cand {
		e := p.estimate(c)
		if worstEst < 0 || e < worstEst {
			worst, worstEst = c, e
		}
	}
	if est > worstEst {
		delete(p.cand, worst)
		p.cand[v] = struct{}{}
	}
}

func (p *cmPAO) AddValue(v int64) {
	p.bump(v, 1)
	p.admit(v)
}

func (p *cmPAO) RemoveValue(v int64) { p.bump(v, -1) }

func (p *cmPAO) Merge(other PAO) {
	o := other.(*cmPAO)
	if o.cells == nil {
		return
	}
	p.init()
	for i, c := range o.cells {
		p.cells[i] += c
	}
	for v := range o.cand {
		p.admit(v)
	}
}

func (p *cmPAO) Unmerge(other PAO) {
	o := other.(*cmPAO)
	if o.cells == nil {
		return
	}
	p.init()
	for i, c := range o.cells {
		p.cells[i] -= c
	}
}

// Finalize returns the k candidates with the highest estimated
// frequencies, most frequent first (ties toward smaller values).
func (p *cmPAO) Finalize() Result {
	if p.cells == nil || len(p.cand) == 0 {
		return Result{List: []int64{}, Valid: false}
	}
	type vc struct{ v, c int64 }
	all := make([]vc, 0, len(p.cand))
	for v := range p.cand {
		if e := p.estimate(v); e > 0 {
			all = append(all, vc{v, e})
		}
	}
	if len(all) == 0 {
		return Result{List: []int64{}, Valid: false}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	n := p.k
	if n > len(all) {
		n = len(all)
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].v
	}
	return Result{List: out, Valid: true}
}

func (p *cmPAO) Reset() {
	p.cells = nil
	p.cand = nil
}

// ApproxDistinct approximates the number of distinct values with a counting
// Bloom filter of M counters and K hash rows, read out with the
// linear-counting estimator n ≈ -(M/K)·ln(V) where V is the fraction of
// zero counters. Counters make removal exact, so sliding windows and
// negative edges compose correctly (HyperLogLog would not support either).
type ApproxDistinct struct {
	M int // counters (default 4096)
	K int // hashes per value (default 3)
}

func (t ApproxDistinct) params() (m, k int) {
	m, k = t.M, t.K
	if m <= 0 {
		m = 4096
	}
	if k <= 0 {
		k = 3
	}
	return
}

// Name implements Aggregate.
func (ApproxDistinct) Name() string { return "distinct~" }

// Props implements Aggregate: the sketch is linear (subtractable). It is
// NOT duplicate-insensitive: merging the same contribution twice double
// counts the counters, so multi-path (VNM_D) overlays are illegal —
// unlike the exact Distinct, whose set semantics tolerate them.
func (ApproxDistinct) Props() Properties {
	return Properties{Subtractable: true}
}

// NewPAO implements Aggregate.
func (t ApproxDistinct) NewPAO() PAO {
	m, k := t.params()
	return &cbfPAO{m: m, k: k}
}

type cbfPAO struct {
	m, k     int
	counters []int32
	items    int64 // total multiplicity, for Valid and fast emptiness
}

func (p *cbfPAO) init() {
	if p.counters == nil {
		p.counters = make([]int32, p.m)
	}
}

func (p *cbfPAO) bump(v int64, delta int32) {
	p.init()
	for r := 0; r < p.k; r++ {
		p.counters[cmHash(uint64(v), uint64(r+0x51))%uint64(p.m)] += delta
	}
	p.items += int64(delta)
}

func (p *cbfPAO) AddValue(v int64)    { p.bump(v, 1) }
func (p *cbfPAO) RemoveValue(v int64) { p.bump(v, -1) }

func (p *cbfPAO) Merge(other PAO) {
	o := other.(*cbfPAO)
	if o.counters == nil {
		return
	}
	p.init()
	for i, c := range o.counters {
		p.counters[i] += c
	}
	p.items += o.items
}

func (p *cbfPAO) Unmerge(other PAO) {
	o := other.(*cbfPAO)
	if o.counters == nil {
		return
	}
	p.init()
	for i, c := range o.counters {
		p.counters[i] -= c
	}
	p.items -= o.items
}

// Finalize applies linear counting over the zero-counter fraction.
func (p *cbfPAO) Finalize() Result {
	if p.items <= 0 || p.counters == nil {
		return Result{Scalar: 0, Valid: true}
	}
	zero := 0
	for _, c := range p.counters {
		if c <= 0 {
			zero++
		}
	}
	if zero == 0 {
		// Sketch saturated; report the upper bound.
		return Result{Scalar: int64(p.m), Valid: true}
	}
	v := float64(zero) / float64(p.m)
	est := -float64(p.m) / float64(p.k) * ln(v)
	if est < 0 {
		est = 0
	}
	return Result{Scalar: int64(est + 0.5), Valid: true}
}

func (p *cbfPAO) Reset() {
	p.counters = nil
	p.items = 0
}

// ln is a minimal natural logarithm via the math package; isolated here so
// the sketch code reads without the import at each use site.
func ln(x float64) float64 { return math.Log(x) }
