package agg

import "math"

// StdDev is the population standard deviation, maintained as the algebraic
// triple (count, sum, sum of squares) — the textbook example of an
// algebraic aggregate that shares perfectly through partial aggregation
// (paper §2.1: benefits are highest "for distributive and algebraic
// aggregates"). Finalize rounds to the nearest integer to fit the int64
// result model.
type StdDev struct{}

// Name implements Aggregate.
func (StdDev) Name() string { return "stddev" }

// Props implements Aggregate.
func (StdDev) Props() Properties { return Properties{Subtractable: true} }

// NewPAO implements Aggregate.
func (StdDev) NewPAO() PAO { return &stddevPAO{} }

type stddevPAO struct {
	n     int64
	sum   int64
	sumSq int64
}

func (p *stddevPAO) AddValue(v int64) {
	p.n++
	p.sum += v
	p.sumSq += v * v
}

func (p *stddevPAO) RemoveValue(v int64) {
	p.n--
	p.sum -= v
	p.sumSq -= v * v
}

func (p *stddevPAO) Merge(other PAO) {
	o := other.(*stddevPAO)
	p.n += o.n
	p.sum += o.sum
	p.sumSq += o.sumSq
}

func (p *stddevPAO) Unmerge(other PAO) {
	o := other.(*stddevPAO)
	p.n -= o.n
	p.sum -= o.sum
	p.sumSq -= o.sumSq
}

func (p *stddevPAO) Finalize() Result {
	if p.n <= 0 {
		return Result{}
	}
	mean := float64(p.sum) / float64(p.n)
	variance := float64(p.sumSq)/float64(p.n) - mean*mean
	if variance < 0 {
		variance = 0 // guard against rounding
	}
	return Result{Scalar: int64(math.Sqrt(variance) + 0.5), Valid: true}
}

func (p *stddevPAO) Reset() { *p = stddevPAO{} }
