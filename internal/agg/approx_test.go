package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestApproxTopKMatchesExactOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	approx := ApproxTopK{K: 3}.NewPAO()
	exact := TopK{K: 3}.NewPAO()
	// Zipf-ish skew: value v appears ~ 1/(v+1)^1.5 of the time.
	for i := 0; i < 20000; i++ {
		v := int64(math.Pow(rng.Float64(), 2) * 50)
		approx.AddValue(v)
		exact.AddValue(v)
	}
	got := approx.Finalize()
	want := exact.Finalize()
	if !got.Valid || len(got.List) != 3 {
		t.Fatalf("approx topk = %v", got)
	}
	// The approximate top-3 must agree with the exact top-3 on skewed
	// data (the heavy hitters are far apart).
	for i := range want.List {
		if got.List[i] != want.List[i] {
			t.Fatalf("approx top3 = %v, exact = %v", got.List, want.List)
		}
	}
}

func TestApproxTopKFrequencyErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := (ApproxTopK{K: 1, Width: 1024, Depth: 4}).NewPAO().(*cmPAO)
	truth := map[int64]int64{}
	n := int64(0)
	for i := 0; i < 30000; i++ {
		v := int64(rng.Intn(2000))
		p.AddValue(v)
		truth[v]++
		n++
	}
	// CM guarantees estimate >= truth and estimate <= truth + eN with
	// e = 2/width, w.h.p. Check on a sample.
	bound := int64(4 * float64(n) / 1024) // slack factor 2 over eN
	for v := int64(0); v < 100; v++ {
		est := p.estimate(v)
		if est < truth[v] {
			t.Fatalf("CM underestimated %d: est %d < truth %d", v, est, truth[v])
		}
		if est > truth[v]+bound {
			t.Fatalf("CM overestimate too large for %d: est %d, truth %d, bound %d",
				v, est, truth[v], bound)
		}
	}
}

func TestApproxTopKWindowRemoval(t *testing.T) {
	w := NewTupleWindow(100)
	p := ApproxTopK{K: 1}.NewPAO()
	// First 100 values: all 7s. Next 100: all 9s. Window keeps only 9s.
	for i := 0; i < 100; i++ {
		w.Add(p, 7, int64(i))
	}
	for i := 0; i < 100; i++ {
		w.Add(p, 9, int64(100+i))
	}
	r := p.Finalize()
	if !r.Valid || len(r.List) == 0 || r.List[0] != 9 {
		t.Fatalf("windowed approx top1 = %v, want [9]", r)
	}
}

// The CM cells are linear, so merge followed by unmerge restores every
// frequency estimate exactly. (The bounded candidate list is a heuristic
// and may differ, so Finalize itself is not required to round-trip.)
func TestApproxTopKMergeUnmergeRestoresEstimates(t *testing.T) {
	f := func(xs, ys []int8) bool {
		p := (ApproxTopK{K: 2}).NewPAO().(*cmPAO)
		q := (ApproxTopK{K: 2}).NewPAO().(*cmPAO)
		for _, x := range xs {
			p.AddValue(int64(x))
		}
		for _, y := range ys {
			q.AddValue(int64(y))
		}
		before := make(map[int64]int64)
		for v := int64(-128); v < 128; v++ {
			before[v] = p.estimate(v)
		}
		p.Merge(q)
		p.Unmerge(q)
		for v := int64(-128); v < 128; v++ {
			if p.estimate(v) != before[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxTopKCandidateEviction(t *testing.T) {
	p := (ApproxTopK{K: 1, Candidates: 4}).NewPAO().(*cmPAO)
	// Flood with many distinct rare values, then a heavy hitter.
	for v := int64(0); v < 100; v++ {
		p.AddValue(v)
	}
	for i := 0; i < 50; i++ {
		p.AddValue(777)
	}
	if len(p.cand) > 4 {
		t.Fatalf("candidate set grew to %d, cap 4", len(p.cand))
	}
	r := p.Finalize()
	if len(r.List) == 0 || r.List[0] != 777 {
		t.Fatalf("heavy hitter evicted: %v", r)
	}
}

func TestApproxDistinctAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, trueN := range []int{10, 100, 500, 1500} {
		p := ApproxDistinct{M: 4096, K: 3}.NewPAO()
		seen := map[int64]bool{}
		for len(seen) < trueN {
			v := int64(rng.Intn(1 << 30))
			if !seen[v] {
				seen[v] = true
			}
			p.AddValue(v) // duplicates included
		}
		got := float64(p.Finalize().Scalar)
		relErr := math.Abs(got-float64(trueN)) / float64(trueN)
		if relErr > 0.15 {
			t.Fatalf("distinct~ = %.0f for true %d (rel err %.2f)", got, trueN, relErr)
		}
	}
}

func TestApproxDistinctRemoval(t *testing.T) {
	p := ApproxDistinct{M: 1024, K: 3}.NewPAO()
	for v := int64(0); v < 200; v++ {
		p.AddValue(v)
	}
	for v := int64(0); v < 200; v++ {
		p.RemoveValue(v)
	}
	if got := p.Finalize().Scalar; got != 0 {
		t.Fatalf("distinct~ after full removal = %d, want 0", got)
	}
}

func TestApproxDistinctMergeAdds(t *testing.T) {
	a := ApproxDistinct{M: 4096}.NewPAO()
	b := ApproxDistinct{M: 4096}.NewPAO()
	for v := int64(0); v < 300; v++ {
		a.AddValue(v)
	}
	for v := int64(300); v < 600; v++ {
		b.AddValue(v)
	}
	a.Merge(b)
	got := float64(a.Finalize().Scalar)
	if math.Abs(got-600)/600 > 0.15 {
		t.Fatalf("merged distinct~ = %.0f, want ~600", got)
	}
	a.Unmerge(b)
	got = float64(a.Finalize().Scalar)
	if math.Abs(got-300)/300 > 0.15 {
		t.Fatalf("unmerged distinct~ = %.0f, want ~300", got)
	}
}

func TestApproxDistinctSaturation(t *testing.T) {
	p := ApproxDistinct{M: 64, K: 2}.NewPAO()
	for v := int64(0); v < 10000; v++ {
		p.AddValue(v)
	}
	if got := p.Finalize().Scalar; got != 64 {
		t.Fatalf("saturated sketch = %d, want upper bound 64", got)
	}
}

func TestStdDev(t *testing.T) {
	p := StdDev{}.NewPAO()
	if p.Finalize().Valid {
		t.Fatal("empty stddev should be invalid")
	}
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} { // classic example: sd = 2
		p.AddValue(v)
	}
	if r := p.Finalize(); r.Scalar != 2 {
		t.Fatalf("stddev = %v, want 2", r)
	}
	// Constant stream: sd 0.
	q := StdDev{}.NewPAO()
	q.AddValue(5)
	q.AddValue(5)
	if r := q.Finalize(); r.Scalar != 0 {
		t.Fatalf("stddev of constant = %v, want 0", r)
	}
}

func TestStdDevMergeEqualsWhole(t *testing.T) {
	f := func(xs, ys []int8) bool {
		whole := StdDev{}.NewPAO()
		a, bb := StdDev{}.NewPAO(), StdDev{}.NewPAO()
		for _, x := range xs {
			whole.AddValue(int64(x))
			a.AddValue(int64(x))
		}
		for _, y := range ys {
			whole.AddValue(int64(y))
			bb.AddValue(int64(y))
		}
		a.Merge(bb)
		return a.Finalize().Eq(whole.Finalize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxAggregatesRegistered(t *testing.T) {
	for _, spec := range []string{"topk~(5)", "distinct~", "stddev"} {
		a, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		p := a.NewPAO()
		p.AddValue(1)
		if res := p.Finalize(); !res.Valid {
			t.Fatalf("%s: invalid result after one value", spec)
		}
	}
	if a, _ := Parse("topk~(5)"); a.(ApproxTopK).K != 5 {
		t.Fatal("topk~ parameter not applied")
	}
}
