package agg

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func allAggregates() []Aggregate {
	return []Aggregate{Sum{}, Count{}, Avg{}, Max{}, Min{}, Distinct{}, TopK{K: 3}}
}

func TestSumBasic(t *testing.T) {
	p := Sum{}.NewPAO()
	if p.Finalize().Valid {
		t.Fatal("empty sum should be invalid")
	}
	p.AddValue(3)
	p.AddValue(4)
	if r := p.Finalize(); !r.Valid || r.Scalar != 7 {
		t.Fatalf("sum = %v, want 7", r)
	}
	p.RemoveValue(3)
	if r := p.Finalize(); r.Scalar != 4 {
		t.Fatalf("sum after remove = %v, want 4", r)
	}
}

func TestSumMergeUnmerge(t *testing.T) {
	a := Sum{}.NewPAO()
	b := Sum{}.NewPAO()
	a.AddValue(10)
	b.AddValue(5)
	b.AddValue(7)
	a.Merge(b)
	if r := a.Finalize(); r.Scalar != 22 {
		t.Fatalf("merged sum = %v, want 22", r)
	}
	a.Unmerge(b)
	if r := a.Finalize(); r.Scalar != 10 {
		t.Fatalf("unmerged sum = %v, want 10", r)
	}
}

func TestCountAndAvg(t *testing.T) {
	c := Count{}.NewPAO()
	c.AddValue(100)
	c.AddValue(200)
	if r := c.Finalize(); r.Scalar != 2 {
		t.Fatalf("count = %v, want 2", r)
	}
	a := Avg{}.NewPAO()
	a.AddValue(10)
	a.AddValue(20)
	a.AddValue(33)
	if r := a.Finalize(); r.Scalar != 21 {
		t.Fatalf("avg = %v, want 21", r)
	}
	if r := (Avg{}).NewPAO().Finalize(); r.Valid {
		t.Fatal("empty avg should be invalid")
	}
}

func TestMaxMinBasic(t *testing.T) {
	p := Max{}.NewPAO()
	if p.Finalize().Valid {
		t.Fatal("empty max should be invalid")
	}
	for _, v := range []int64{3, 9, 1, 9, 5} {
		p.AddValue(v)
	}
	if r := p.Finalize(); r.Scalar != 9 {
		t.Fatalf("max = %v, want 9", r)
	}
	p.RemoveValue(9)
	if r := p.Finalize(); r.Scalar != 9 {
		t.Fatalf("max after removing one 9 = %v, want 9 (duplicate)", r)
	}
	p.RemoveValue(9)
	if r := p.Finalize(); r.Scalar != 5 {
		t.Fatalf("max after removing both 9s = %v, want 5", r)
	}

	m := Min{}.NewPAO()
	for _, v := range []int64{3, 9, 1, 5} {
		m.AddValue(v)
	}
	if r := m.Finalize(); r.Scalar != 1 {
		t.Fatalf("min = %v, want 1", r)
	}
	m.RemoveValue(1)
	if r := m.Finalize(); r.Scalar != 3 {
		t.Fatalf("min after remove = %v, want 3", r)
	}
}

func TestMaxMergeTakesChildExtremum(t *testing.T) {
	child := Max{}.NewPAO()
	child.AddValue(4)
	child.AddValue(8)
	parent := Max{}.NewPAO()
	parent.AddValue(6)
	parent.Merge(child)
	if r := parent.Finalize(); r.Scalar != 8 {
		t.Fatalf("max = %v, want 8", r)
	}
	// The child's best leaves: the engine pushes the removed raw value.
	child.RemoveValue(8)
	parent.RemoveValue(8)
	if r := parent.Finalize(); r.Scalar != 6 {
		t.Fatalf("max after the child's best left = %v, want 6", r)
	}
}

func TestTopKBasic(t *testing.T) {
	p := TopK{K: 2}.NewPAO()
	if p.Finalize().Valid {
		t.Fatal("empty topk should be invalid")
	}
	for _, v := range []int64{7, 7, 7, 3, 3, 9} {
		p.AddValue(v)
	}
	r := p.Finalize()
	if !r.Valid || len(r.List) != 2 || r.List[0] != 7 || r.List[1] != 3 {
		t.Fatalf("top2 = %v, want [7 3]", r)
	}
}

func TestTopKTieBreaksBySmallerValue(t *testing.T) {
	p := TopK{K: 2}.NewPAO()
	for _, v := range []int64{5, 2, 5, 2, 8} {
		p.AddValue(v)
	}
	r := p.Finalize()
	if len(r.List) != 2 || r.List[0] != 2 || r.List[1] != 5 {
		t.Fatalf("top2 = %v, want [2 5] (tie breaks to smaller)", r)
	}
}

func TestTopKMergeUnmerge(t *testing.T) {
	a := TopK{K: 1}.NewPAO()
	b := TopK{K: 1}.NewPAO()
	a.AddValue(1)
	b.AddValue(2)
	b.AddValue(2)
	a.Merge(b)
	if r := a.Finalize(); r.List[0] != 2 {
		t.Fatalf("merged top1 = %v, want [2]", r)
	}
	a.Unmerge(b)
	if r := a.Finalize(); r.List[0] != 1 {
		t.Fatalf("unmerged top1 = %v, want [1]", r)
	}
}

func TestDistinct(t *testing.T) {
	p := Distinct{}.NewPAO()
	for _, v := range []int64{1, 1, 2, 3, 3, 3} {
		p.AddValue(v)
	}
	if r := p.Finalize(); r.Scalar != 3 {
		t.Fatalf("distinct = %v, want 3", r)
	}
	p.RemoveValue(2)
	if r := p.Finalize(); r.Scalar != 2 {
		t.Fatalf("distinct after remove = %v, want 2", r)
	}
	p.RemoveValue(3)
	if r := p.Finalize(); r.Scalar != 2 {
		t.Fatalf("distinct after removing one of three 3s = %v, want 2", r)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	for _, a := range allAggregates() {
		p := a.NewPAO()
		p.AddValue(5)
		p.AddValue(6)
		p.Reset()
		fresh := a.NewPAO()
		if !p.Finalize().Eq(fresh.Finalize()) {
			t.Fatalf("%s: Reset() != fresh PAO: %v vs %v",
				a.Name(), p.Finalize(), fresh.Finalize())
		}
	}
}

// Property: Merge is commutative up to Finalize for every built-in.
func TestMergeCommutative(t *testing.T) {
	for _, a := range allAggregates() {
		a := a
		f := func(xs, ys []int8) bool {
			p1, q1 := a.NewPAO(), a.NewPAO()
			p2, q2 := a.NewPAO(), a.NewPAO()
			for _, x := range xs {
				p1.AddValue(int64(x))
				p2.AddValue(int64(x))
			}
			for _, y := range ys {
				q1.AddValue(int64(y))
				q2.AddValue(int64(y))
			}
			p1.Merge(q1) // p + q
			q2.Merge(p2) // q + p
			return p1.Finalize().Eq(q2.Finalize())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: merge not commutative: %v", a.Name(), err)
		}
	}
}

// Property: for subtractable aggregates, Merge then Unmerge is identity.
func TestMergeUnmergeIdentity(t *testing.T) {
	for _, a := range allAggregates() {
		if !a.Props().Subtractable {
			continue
		}
		a := a
		f := func(xs, ys []int8) bool {
			p, q := a.NewPAO(), a.NewPAO()
			for _, x := range xs {
				p.AddValue(int64(x))
			}
			for _, y := range ys {
				q.AddValue(int64(y))
			}
			before := p.Finalize()
			p.Merge(q)
			p.Unmerge(q)
			return p.Finalize().Eq(before)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: merge/unmerge not identity: %v", a.Name(), err)
		}
	}
}

// Property: aggregating values one at a time equals aggregating a merge of
// two partial PAOs covering the same values (decomposability used by the
// overlay).
func TestPartialAggregationEquivalence(t *testing.T) {
	for _, a := range allAggregates() {
		a := a
		f := func(xs []int8, split uint8) bool {
			if len(xs) == 0 {
				return true
			}
			cut := int(split) % len(xs)
			whole := a.NewPAO()
			for _, x := range xs {
				whole.AddValue(int64(x))
			}
			left, right := a.NewPAO(), a.NewPAO()
			for _, x := range xs[:cut] {
				left.AddValue(int64(x))
			}
			for _, x := range xs[cut:] {
				right.AddValue(int64(x))
			}
			combined := a.NewPAO()
			combined.Merge(left)
			combined.Merge(right)
			// For MAX/MIN, merging takes the child's extremum — the
			// combined result must match the whole for extrema.
			return combined.Finalize().Eq(whole.Finalize())
		}
		cfg := &quick.Config{MaxCount: 60}
		if err := quick.Check(f, cfg); err != nil {
			// MAX/MIN merge contributes only the child's extremum;
			// whole-vs-split equivalence holds for the extremum
			// value itself. If it fails, report.
			t.Errorf("%s: partial aggregation not equivalent: %v", a.Name(), err)
		}
	}
}

// Property: duplicate-insensitive aggregates give the same answer when an
// input PAO is merged twice (multiple overlay paths).
func TestDuplicateInsensitivity(t *testing.T) {
	for _, a := range allAggregates() {
		if !a.Props().DuplicateInsensitive {
			continue
		}
		if a.Name() == "distinct" {
			continue // set-insensitive on membership, not multiplicity
		}
		a := a
		f := func(xs []int8) bool {
			if len(xs) == 0 {
				return true
			}
			child := a.NewPAO()
			for _, x := range xs {
				child.AddValue(int64(x))
			}
			once := a.NewPAO()
			once.Merge(child)
			twice := a.NewPAO()
			twice.Merge(child)
			twice.Merge(child)
			return once.Finalize().Eq(twice.Finalize())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: not duplicate-insensitive: %v", a.Name(), err)
		}
	}
}

func TestTupleWindowSlides(t *testing.T) {
	w := NewTupleWindow(3)
	p := Sum{}.NewPAO()
	for i, v := range []int64{1, 2, 3, 4, 5} {
		w.Add(p, v, int64(i))
	}
	// Window holds {3,4,5}.
	if r := p.Finalize(); r.Scalar != 12 {
		t.Fatalf("windowed sum = %v, want 12", r)
	}
	if w.Len() != 3 {
		t.Fatalf("window len = %d, want 3", w.Len())
	}
}

func TestTupleWindowSize1MatchesPaperExample(t *testing.T) {
	// Figure 1: c=1 keeps only the most recent write.
	w := NewTupleWindow(1)
	p := Sum{}.NewPAO()
	w.Add(p, 1, 0)
	w.Add(p, 4, 1)
	if r := p.Finalize(); r.Scalar != 4 {
		t.Fatalf("c=1 window sum = %v, want 4 (latest write on a)", r)
	}
}

func TestTimeWindowExpires(t *testing.T) {
	w := NewTimeWindow(10)
	p := Count{}.NewPAO()
	w.Add(p, 1, 0)
	w.Add(p, 1, 5)
	w.Add(p, 1, 12) // expires ts=0 (0 <= 12-10)
	if r := p.Finalize(); r.Scalar != 2 {
		t.Fatalf("count = %v, want 2 after expiry", r)
	}
	w.Expire(p, 100)
	if r := p.Finalize(); r.Scalar != 0 {
		t.Fatalf("count = %v, want 0 after full expiry", r)
	}
	if w.Len() != 0 {
		t.Fatalf("window len = %d, want 0", w.Len())
	}
}

func TestTimeWindowWithMax(t *testing.T) {
	w := NewTimeWindow(10)
	p := Max{}.NewPAO()
	w.Add(p, 100, 0)
	w.Add(p, 5, 8)
	if r := p.Finalize(); r.Scalar != 100 {
		t.Fatalf("max = %v, want 100", r)
	}
	w.Expire(p, 11) // 100 written at ts=0 expires
	if r := p.Finalize(); r.Scalar != 5 {
		t.Fatalf("max after expiry = %v, want 5", r)
	}
}

func TestAvgWindowSize(t *testing.T) {
	if s := AvgWindowSize(NewTupleWindow(10), 0); s != 10 {
		t.Fatalf("tuple window size = %v, want 10", s)
	}
	if s := AvgWindowSize(NewTimeWindow(100), 0.5); s != 50 {
		t.Fatalf("time window size = %v, want 50", s)
	}
	if s := AvgWindowSize(NewTimeWindow(1), 0.0001); s != 1 {
		t.Fatalf("time window size floor = %v, want 1", s)
	}
}

func TestWindowClone(t *testing.T) {
	w := NewTupleWindow(5)
	p := Sum{}.NewPAO()
	w.Add(p, 9, 0)
	c := w.Clone().(*TupleWindow)
	if c.Len() != 0 || c.C != 5 {
		t.Fatalf("clone should be empty with same C; len=%d C=%d", c.Len(), c.C)
	}
	tw := NewTimeWindow(42)
	tc := tw.Clone().(*TimeWindow)
	if tc.T != 42 || tc.Len() != 0 {
		t.Fatalf("time window clone wrong: T=%d len=%d", tc.T, tc.Len())
	}
}

func TestRegistryParse(t *testing.T) {
	cases := map[string]string{
		"sum":      "sum",
		"SUM":      "sum",
		" max ":    "max",
		"topk(5)":  "topk",
		"count":    "count",
		"distinct": "distinct",
	}
	for spec, wantName := range cases {
		a, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if a.Name() != wantName {
			t.Fatalf("Parse(%q).Name() = %q, want %q", spec, a.Name(), wantName)
		}
	}
	if tk, err := Parse("topk(5)"); err != nil || tk.(TopK).K != 5 {
		t.Fatalf("topk(5) param not applied: %v %v", tk, err)
	}
}

func TestRegistryParseErrors(t *testing.T) {
	for _, spec := range []string{"nope", "topk(x)", "topk(3"} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) should fail", spec)
		}
	}
}

func TestRegistryUserDefined(t *testing.T) {
	Register("always42", func(int) Aggregate { return always42{} })
	a, err := Parse("always42")
	if err != nil {
		t.Fatal(err)
	}
	p := a.NewPAO()
	p.AddValue(7)
	if r := p.Finalize(); r.Scalar != 42 {
		t.Fatalf("user-defined aggregate = %v, want 42", r)
	}
	found := false
	for _, n := range Names() {
		if n == "always42" {
			found = true
		}
	}
	if !found {
		t.Fatal("Names() missing registered aggregate")
	}
}

// always42 is a trivial user-defined aggregate used to exercise the API.
type always42 struct{}

func (always42) Name() string      { return "always42" }
func (always42) Props() Properties { return Properties{} }
func (always42) NewPAO() PAO       { return &fortyTwoPAO{} }

type fortyTwoPAO struct{ n int64 }

func (p *fortyTwoPAO) AddValue(int64)    { p.n++ }
func (p *fortyTwoPAO) RemoveValue(int64) { p.n-- }
func (p *fortyTwoPAO) Merge(o PAO)       { p.n += o.(*fortyTwoPAO).n }
func (p *fortyTwoPAO) Unmerge(o PAO)     { p.n -= o.(*fortyTwoPAO).n }
func (p *fortyTwoPAO) Finalize() Result  { return Result{Scalar: 42, Valid: p.n > 0} }
func (p *fortyTwoPAO) Reset()            { p.n = 0 }

func TestResultString(t *testing.T) {
	if got := (Result{}).String(); got != "<empty>" {
		t.Fatalf("empty result = %q", got)
	}
	if got := (Result{Scalar: 7, Valid: true}).String(); got != "7" {
		t.Fatalf("scalar result = %q", got)
	}
	if got := (Result{List: []int64{1, 2}, Valid: true}).String(); got != "[1 2]" {
		t.Fatalf("list result = %q", got)
	}
}

// Fuzz-style randomized window test: a windowed SUM always equals the brute
// force sum of the in-window values.
func TestWindowedSumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := 1 + rng.Intn(8)
		w := NewTupleWindow(c)
		p := Sum{}.NewPAO()
		var vals []int64
		for i := 0; i < 200; i++ {
			v := int64(rng.Intn(1000) - 500)
			vals = append(vals, v)
			w.Add(p, v, int64(i))
			lo := len(vals) - c
			if lo < 0 {
				lo = 0
			}
			var want int64
			for _, x := range vals[lo:] {
				want += x
			}
			if got := p.Finalize().Scalar; got != want {
				t.Fatalf("trial %d step %d: windowed sum = %d, want %d", trial, i, got, want)
			}
		}
	}
}

// Randomized MAX multiset stress: interleave adds/removes and compare with a
// brute-force multiset.
func TestMaxMultisetStress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := Max{}.NewPAO()
	counts := map[int64]int{}
	var keys []int64
	for i := 0; i < 3000; i++ {
		if len(keys) == 0 || rng.Intn(2) == 0 {
			v := int64(rng.Intn(50))
			p.AddValue(v)
			if counts[v] == 0 {
				keys = append(keys, v)
			}
			counts[v]++
		} else {
			k := keys[rng.Intn(len(keys))]
			p.RemoveValue(k)
			counts[k]--
			if counts[k] == 0 {
				for j, x := range keys {
					if x == k {
						keys[j] = keys[len(keys)-1]
						keys = keys[:len(keys)-1]
						break
					}
				}
			}
		}
		var want int64
		valid := false
		for v, c := range counts {
			if c > 0 && (!valid || v > want) {
				want, valid = v, true
			}
		}
		got := p.Finalize()
		if got.Valid != valid || (valid && got.Scalar != want) {
			t.Fatalf("step %d: max = %v, want (%d,%v)", i, got, want, valid)
		}
	}
}

// TestNamesSortedAndStable pins the Names() ordering contract: sorted
// ascending, duplicate-free, and stable across calls. Error messages
// ("unknown aggregate ... have a, b, c"), docs, and the topo registry's
// parallel Names() all lean on this being deterministic.
func TestNamesSortedAndStable(t *testing.T) {
	first := Names()
	if len(first) == 0 {
		t.Fatal("no registered aggregates")
	}
	if !sort.StringsAreSorted(first) {
		t.Fatalf("Names() not sorted: %v", first)
	}
	for i := 1; i < len(first); i++ {
		if first[i] == first[i-1] {
			t.Fatalf("Names() has duplicate %q", first[i])
		}
	}
	second := Names()
	if !slices.Equal(first, second) {
		t.Fatalf("Names() unstable across calls: %v vs %v", first, second)
	}
	// Mutating the returned slice must not corrupt the registry's view.
	first[0] = "zzz-mutated"
	if third := Names(); !slices.Equal(second, third) {
		t.Fatalf("Names() aliases internal state: %v", third)
	}
}
