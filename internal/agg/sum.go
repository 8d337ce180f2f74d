package agg

// Sum is the built-in SUM aggregate. It is subtractable (negative edges are
// legal) but duplicate-sensitive (multiple writer→reader paths are not).
// H(k) ∝ 1 and L(k) ∝ k (paper §4.2).
type Sum struct{}

// Name implements Aggregate.
func (Sum) Name() string { return "sum" }

// Props implements Aggregate.
func (Sum) Props() Properties { return Properties{Subtractable: true} }

// NewPAO implements Aggregate.
func (Sum) NewPAO() PAO { return &sumPAO{} }

// FinalizeScalar implements ScalarAggregate.
func (Sum) FinalizeScalar(sum, n int64) Result { return Result{Scalar: sum, Valid: n > 0} }

type sumPAO struct {
	sum int64
	n   int64 // number of raw values contributing (for Valid)
}

func (p *sumPAO) AddValue(v int64)    { p.sum += v; p.n++ }
func (p *sumPAO) RemoveValue(v int64) { p.sum -= v; p.n-- }

func (p *sumPAO) Merge(other PAO) {
	o := other.(*sumPAO)
	p.sum += o.sum
	p.n += o.n
}

func (p *sumPAO) Unmerge(other PAO) {
	o := other.(*sumPAO)
	p.sum -= o.sum
	p.n -= o.n
}

func (p *sumPAO) Finalize() Result {
	return Result{Scalar: p.sum, Valid: p.n > 0}
}

func (p *sumPAO) Reset() { *p = sumPAO{} }

// Count is the built-in COUNT aggregate (counts raw values in the window).
type Count struct{}

// Name implements Aggregate.
func (Count) Name() string { return "count" }

// Props implements Aggregate.
func (Count) Props() Properties { return Properties{Subtractable: true} }

// NewPAO implements Aggregate.
func (Count) NewPAO() PAO { return &countPAO{} }

// FinalizeScalar implements ScalarAggregate.
func (Count) FinalizeScalar(_, n int64) Result { return Result{Scalar: n, Valid: true} }

type countPAO struct {
	n int64
}

func (p *countPAO) AddValue(int64)    { p.n++ }
func (p *countPAO) RemoveValue(int64) { p.n-- }
func (p *countPAO) Merge(other PAO)   { p.n += other.(*countPAO).n }
func (p *countPAO) Unmerge(other PAO) { p.n -= other.(*countPAO).n }
func (p *countPAO) Finalize() Result  { return Result{Scalar: p.n, Valid: true} }
func (p *countPAO) Reset()            { p.n = 0 }

// Avg is the built-in AVG aggregate, maintained as (sum, count) — the
// canonical algebraic aggregate. Finalize returns the integer average.
type Avg struct{}

// Name implements Aggregate.
func (Avg) Name() string { return "avg" }

// Props implements Aggregate.
func (Avg) Props() Properties { return Properties{Subtractable: true} }

// NewPAO implements Aggregate.
func (Avg) NewPAO() PAO { return &avgPAO{} }

// FinalizeScalar implements ScalarAggregate.
func (Avg) FinalizeScalar(sum, n int64) Result {
	if n == 0 {
		return Result{}
	}
	return Result{Scalar: sum / n, Valid: true}
}

type avgPAO struct {
	sum int64
	n   int64
}

func (p *avgPAO) AddValue(v int64)    { p.sum += v; p.n++ }
func (p *avgPAO) RemoveValue(v int64) { p.sum -= v; p.n-- }

func (p *avgPAO) Merge(other PAO) {
	o := other.(*avgPAO)
	p.sum += o.sum
	p.n += o.n
}

func (p *avgPAO) Unmerge(other PAO) {
	o := other.(*avgPAO)
	p.sum -= o.sum
	p.n -= o.n
}

func (p *avgPAO) Finalize() Result {
	if p.n == 0 {
		return Result{}
	}
	return Result{Scalar: p.sum / p.n, Valid: true}
}

func (p *avgPAO) Reset() { *p = avgPAO{} }
