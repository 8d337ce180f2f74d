package agg

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkMultiset verifies every kernel invariant and that m holds exactly
// model's non-zero entries.
func checkMultiset(t testing.TB, m *multiset, model map[int64]int64, ctx string) {
	t.Helper()
	n, pos := 0, 0
	for _, c := range model {
		if c != 0 {
			n++
		}
		if c > 0 {
			pos++
		}
	}
	if m.len() != n || m.pos != pos {
		t.Fatalf("%s: len=%d pos=%d, model has %d entries, %d positive", ctx, m.len(), m.pos, n, pos)
	}
	if len(m.slots)&(len(m.slots)-1) != 0 || (len(m.slots) > 0 && m.n > m.limit()) {
		t.Fatalf("%s: %d entries in %d slots", ctx, m.n, len(m.slots))
	}
	mask := uint64(len(m.slots) - 1)
	live := 0
	for i, s := range m.slots {
		if s.c == 0 {
			if s.v != 0 {
				t.Fatalf("%s: empty slot %d keeps value %d", ctx, i, s.v)
			}
			continue
		}
		live++
		if model[s.v] != s.c {
			t.Fatalf("%s: slot %d holds %d×%d, model says %d", ctx, i, s.v, s.c, model[s.v])
		}
		for j := m.home(s.v); j != uint64(i); j = (j + 1) & mask {
			if m.slots[j].c == 0 {
				t.Fatalf("%s: value %d at slot %d is cut off from its home %d by empty slot %d", ctx, s.v, i, m.home(s.v), j)
			}
		}
	}
	if live != n {
		t.Fatalf("%s: %d occupied slots, want %d", ctx, live, n)
	}
	for v, c := range model {
		if got := m.get(v); got != c {
			t.Fatalf("%s: get(%d) = %d, want %d", ctx, v, got, c)
		}
	}
}

// TestMultisetDifferential drives the kernel and a map[int64]int64 side by
// side through add/remove (counts pass through zero into the negative and
// back), merge/unmerge with a second multiset and clear, over the
// edge values and domains from a handful of values to thousands (so tables
// grow through many doublings and shrink back to a few entries in a large
// table), checking every invariant along the way.
func TestMultisetDifferential(t *testing.T) {
	edge := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	maxSlots := 0
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		domain := []int64{3, 12, 60, 400, 5000}[seed%5]
		pick := func() int64 {
			if rng.Intn(6) == 0 {
				return edge[rng.Intn(len(edge))]
			}
			return rng.Int63n(domain) - domain/2
		}
		var m, side multiset
		model, sideModel := map[int64]int64{}, map[int64]int64{}
		apply := func(mm map[int64]int64, v, d int64) int64 {
			mm[v] += d
			if mm[v] == 0 {
				delete(mm, v)
			}
			return mm[v]
		}
		steps := 400 + int(domain)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(40); {
			case op < 14:
				v := pick()
				if got, want := m.add(v, 1), apply(model, v, 1); got != want {
					t.Fatalf("seed %d step %d: add(%d,+1) = %d, want %d", seed, step, v, got, want)
				}
			case op < 26:
				v := pick()
				if got, want := m.add(v, -1), apply(model, v, -1); got != want {
					t.Fatalf("seed %d step %d: add(%d,-1) = %d, want %d", seed, step, v, got, want)
				}
			case op < 30:
				v, d := pick(), int64(rng.Intn(9)-4)
				if got, want := m.add(v, d), apply(model, v, d); got != want {
					t.Fatalf("seed %d step %d: add(%d,%d) = %d, want %d", seed, step, v, d, got, want)
				}
			case op < 34:
				v, d := pick(), int64(rng.Intn(5)-1)
				side.add(v, d)
				apply(sideModel, v, d)
			case op < 36:
				m.merge(&side, 1)
				for v, c := range sideModel {
					apply(model, v, c)
				}
			case op < 38:
				m.merge(&side, -1)
				for v, c := range sideModel {
					apply(model, v, -c)
				}
			default:
				if rng.Intn(4) == 0 {
					m.clear()
					clear(model)
				} else {
					side.clear()
					clear(sideModel)
				}
			}
			if step%16 == 0 || step == steps-1 {
				checkMultiset(t, &m, model, "m")
				checkMultiset(t, &side, sideModel, "side")
			}
			maxSlots = max(maxSlots, len(m.slots))
		}
	}
	if maxSlots < minSlots<<4 {
		t.Fatalf("largest table had %d slots: the run never crossed four doublings", maxSlots)
	}
}

// TestMultisetDeleteWrapsEnd removes from a run that wraps from the last
// slot to the first: the entries behind the hole must shift back across the
// end of the array and stay reachable.
func TestMultisetDeleteWrapsEnd(t *testing.T) {
	var m multiset
	m.reserve(6) // eight slots
	last := uint64(len(m.slots) - 1)
	var run []int64
	for v := int64(0); len(run) < 4; v++ {
		if m.home(v) == last {
			run = append(run, v)
		}
	}
	model := map[int64]int64{}
	for i, v := range run {
		m.add(v, int64(i+1))
		model[v] = int64(i + 1)
	}
	if m.slots[last].v != run[0] || m.slots[0].v != run[1] || m.slots[2].v != run[3] {
		t.Fatalf("run %v is not laid out across the end: %v", run, m.slots)
	}
	for _, v := range []int64{run[1], run[0], run[3], run[2]} {
		m.add(v, -model[v])
		delete(model, v)
		checkMultiset(t, &m, model, "after a wrapped delete")
	}
}

// TestPooledTableShrinks drives a TOP-K PAO the way a pull read's arena
// does — Reset, Merge the inputs, FinalizeOnce — after one hub-sized use:
// the hub's table is given back by the Reset that ends the shrinkAfter-th
// small use, not before, and answers stay exact throughout. A table that one
// use in every shrinkAfter still fills is kept, and the cycle allocates
// nothing.
func TestPooledTableShrinks(t *testing.T) {
	hub, small := TopK{K: 3}.NewPAO(), TopK{K: 3}.NewPAO()
	for v := int64(0); v < 5000; v++ {
		hub.AddValue(v)
	}
	for _, v := range []int64{7, 7, 9, 11, 11, 11} {
		small.AddValue(v)
	}
	p := TopK{K: 3}.NewPAO().(*topkPAO)
	var res Result
	use := func(in PAO) Result {
		p.Reset()
		p.Merge(in)
		res = p.FinalizeOnce(res.List)
		return res
	}
	use(hub)
	big := len(p.freq.slots)
	want := Result{List: []int64{11, 7, 9}, Valid: true}
	for i := 1; i <= shrinkAfter+1; i++ {
		if got := use(small); !got.Eq(want) {
			t.Fatalf("use %d after the hub: %v, want %v", i, got, want)
		}
		if i <= shrinkAfter && len(p.freq.slots) != big {
			t.Fatalf("use %d after the hub: table of %d slots, want the hub's %d kept", i, len(p.freq.slots), big)
		}
	}
	if got := len(p.freq.slots); got != tableFor(3) {
		t.Fatalf("after %d small uses the table has %d slots, want %d", shrinkAfter+1, got, tableFor(3))
	}

	use(hub)
	cycle := func() {
		for i := 1; i < shrinkAfter; i++ {
			use(small)
		}
		use(hub)
	}
	cycle()
	if n := testing.AllocsPerRun(5, cycle); n != 0 || len(p.freq.slots) != big {
		t.Fatalf("a hub use every %d: %.1f allocs per cycle, table of %d slots, want 0 and the hub's %d", shrinkAfter, n, len(p.freq.slots), big)
	}
}

// TestPullArenaSizedByUnion: a pull merging 12 inputs that draw from one
// 64-value domain leaves its pooled arena at the table for the union, not
// for the inputs' sizes added up, and a clear keeps it there.
func TestPullArenaSizedByUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := make([]PAO, 12)
	for i := range inputs {
		inputs[i] = TopK{K: 10}.NewPAO()
		for range 48 {
			inputs[i].AddValue(1 + rng.Int63n(64))
		}
	}
	p := TopK{K: 10}.NewPAO().(*topkPAO)
	for round := 0; round < 3; round++ {
		p.Reset()
		for _, in := range inputs {
			p.Merge(in)
		}
		p.FinalizeOnce(nil)
		if want := tableFor(p.freq.n); len(p.freq.slots) != want {
			t.Fatalf("round %d: a union of %d values in %d slots, want %d", round, p.freq.n, len(p.freq.slots), want)
		}
	}
}

// probeLengths returns the longest and the mean displacement of m's entries
// from their home slots.
func probeLengths(m *multiset) (worst int, mean float64) {
	mask := uint64(len(m.slots) - 1)
	sum := 0
	for i, s := range m.slots {
		if s.c != 0 {
			d := int((uint64(i) - m.home(s.v)) & mask)
			sum += d
			worst = max(worst, d)
		}
	}
	return worst, float64(sum) / float64(m.n)
}

// TestMultisetProbeLength pins the hash on the inputs a multiplicative hash
// fails on under linear probing: arithmetic progressions (small steps,
// round steps, steps that only move high bits, the inverse of the golden
// ratio) and powers of two. For every one of 48 seeds the keys must sit as
// close to home as random keys do at the same 0.73 occupancy: over 70 000
// tables of 6000 random keys the longest displacement stayed below 256 with
// a mean of 1.4, over 20 000 tables of 188 it reached 96 with a mean up to
// 5. A weak hash shows displacements as long as the table.
func TestMultisetProbeLength(t *testing.T) {
	saved := hashSeed
	defer func() { hashSeed = saved }()
	steps := []int64{1, 2, 3, 7, 8, 10, 64, 100, 1000, 4096, 1 << 20, 1 << 32, 1<<32 + 1, 1 << 40, -1018231460777725123}
	seeds := rand.New(rand.NewSource(1))
	for trial := 0; trial < 48; trial++ {
		hashSeed = seeds.Uint64()
		for _, d := range steps {
			var m multiset
			for i := int64(0); i < 6000; i++ {
				m.add(i*d, 1)
			}
			if worst, mean := probeLengths(&m); worst > 512 || mean > 3 {
				t.Errorf("seed %#x, step %d: worst displacement %d, mean %.2f", hashSeed, d, worst, mean)
			}
			// The same keys merged, in m's hash order, into an empty
			// table: merge must reserve their room up front (one table,
			// not one per growth step fed in hash order) and keep them
			// as close to home.
			var into multiset
			allocs := testing.AllocsPerRun(1, func() {
				into = multiset{}
				into.merge(&m, 1)
			})
			if worst, mean := probeLengths(&into); allocs != 1 || into.n != m.n || worst > 512 || mean > 3 {
				t.Errorf("seed %#x, step %d merged into an empty table: %.0f tables, %d of %d keys, worst displacement %d, mean %.2f", hashSeed, d, allocs, into.n, m.n, worst, mean)
			}
		}
		var m multiset
		for j := 0; j < 64; j++ {
			m.add(1<<j, 1)
			m.add(-(1 << j), 1)
			m.add(1<<j-1, 1)
		}
		if worst, mean := probeLengths(&m); worst > 128 || mean > 6 {
			t.Errorf("seed %#x, powers of two: worst displacement %d, mean %.2f", hashSeed, worst, mean)
		}
	}
}

// TestMultisetZeroIsAbsent: an addition that cancels a transient negative
// count removes the entry, on every PAO built on the kernel. (With Go maps
// underneath, TOP-K and DISTINCT kept a zero-count entry here, so len — read
// by TOP-K's upkeep budget and its finalize guard — over-counted for good.)
func TestMultisetZeroIsAbsent(t *testing.T) {
	armed := TopK{K: 2}.NewPAO().(*topkPAO)
	armed.AddValue(1)
	armed.Finalize()
	if !armed.armed {
		t.Fatal("finalize must arm the head")
	}
	armed.RemoveValue(1)
	unarmed := TopK{K: 2}.NewPAO().(*topkPAO)
	dist := Distinct{}.NewPAO().(*distinctPAO)
	mx := Max{}.NewPAO().(*extremumPAO)
	sets := map[string]*multiset{
		"topk armed": &armed.freq, "topk unarmed": &unarmed.freq,
		"distinct": &dist.freq, "max": &mx.counts,
	}
	for name, p := range map[string]PAO{"topk armed": armed, "topk unarmed": unarmed, "distinct": dist, "max": mx} {
		p.RemoveValue(42) // the removal overtakes its addition
		p.AddValue(42)
		if m := sets[name]; m.len() != 0 || m.pos != 0 {
			t.Errorf("%s: remove-then-add of a fresh value leaves len=%d pos=%d, want an empty multiset", name, m.len(), m.pos)
		}
		if got := p.Finalize(); name != "distinct" && got.Valid {
			t.Errorf("%s: finalize of an empty multiset = %+v", name, got)
		}
	}
	other := TopK{K: 2}.NewPAO()
	other.AddValue(7)
	unarmed.RemoveValue(7)
	unarmed.Merge(other)
	if unarmed.freq.len() != 0 {
		t.Errorf("topk: a merge that cancels a negative count leaves len=%d", unarmed.freq.len())
	}
}

// TestHolisticPAOWriteAllocs: once the slot array has grown to the working
// set, adding and removing values allocates nothing on any kernel-backed
// PAO (MAX/MIN have TestExtremumWritePathAllocs), armed TOP-K included.
func TestHolisticPAOWriteAllocs(t *testing.T) {
	for _, a := range []Aggregate{TopK{K: 3}, Distinct{}} {
		p := a.NewPAO()
		for i := int64(0); i < 64; i++ {
			p.AddValue(i << 20)
		}
		for i := int64(0); i < 64; i++ {
			p.RemoveValue(i << 20)
		}
		i, buf := int64(0), make([]int64, 0, 3)
		if n := testing.AllocsPerRun(2000, func() {
			p.AddValue(i % 64 << 20)
			p.AddValue((i + 1) % 64 << 20)
			p.RemoveValue(i % 64 << 20)
			if f, ok := p.(IntoFinalizer); ok && i%8 == 0 {
				f.FinalizeInto(buf) // arms TOP-K's head for the writes that follow
			}
			i++
		}); n != 0 {
			t.Fatalf("%s: steady-state writes allocate %v times per run, want 0", a.Name(), n)
		}
	}
}

// TestExportWireGolden pins the wire bytes of the kernel-backed PAOs to the
// ones the map-backed implementation produced for the same multisets.
func TestExportWireGolden(t *testing.T) {
	fill := func(p PAO) PAO {
		for _, v := range []int64{5, -3, 5, 0, math.MaxInt64, math.MinInt64, 9, 9, 9, 1 << 40} {
			p.AddValue(v)
		}
		p.RemoveValue(-3)
		p.RemoveValue(77) // a removal still waiting for its addition
		return p
	}
	const pairs = `"values":[-9223372036854775808,0,5,9,77,1099511627776,9223372036854775807],"freqs":[1,1,2,3,-1,1,1]`
	for _, tc := range []struct {
		a    Aggregate
		want string
	}{
		{TopK{K: 3}, `{"n":8,` + pairs + `}`},
		{Max{}, `{"n":8,` + pairs + `}`},
		{Min{}, `{"n":8,` + pairs + `}`},
		{Distinct{}, `{` + pairs + `}`},
	} {
		w, ok := Export(fill(tc.a.NewPAO()))
		if !ok {
			t.Fatalf("%s: not wireable", tc.a.Name())
		}
		got, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: wire bytes\n got %s\nwant %s", tc.a.Name(), got, tc.want)
		}
		if w, _ := Export(tc.a.NewPAO()); w.Values != nil || w.Freqs != nil {
			t.Errorf("%s: empty PAO exports %+v, want no pairs", tc.a.Name(), w)
		}
	}
}

// wireModel is what a map-based import of (vals, freqs, n) would finalize
// to: the reference the fuzzer compares against.
func wireModel(a Aggregate, vals, freqs []int64, n int64) Result {
	model := map[int64]int64{}
	for i, v := range vals {
		if freqs[i] != 0 {
			model[v] = freqs[i]
		}
	}
	var positive []valCount
	for v, c := range model {
		if c > 0 {
			positive = append(positive, valCount{v, c})
		}
	}
	sort.Slice(positive, func(i, j int) bool { return before(positive[i], positive[j]) })
	switch a := a.(type) {
	case TopK:
		res := Result{List: []int64{}}
		if n > 0 {
			for _, e := range positive[:min(a.K, len(positive))] {
				res.List = append(res.List, e.v)
			}
		}
		res.Valid = len(res.List) > 0
		return res
	case Distinct:
		return Result{Scalar: int64(len(positive)), Valid: true}
	}
	var res Result
	for _, e := range positive {
		if _, isMax := a.(Max); n > 0 && (!res.Valid || (isMax && e.v > res.Scalar) || (!isMax && e.v < res.Scalar)) {
			res = Result{Scalar: e.v, Valid: true}
		}
	}
	return res
}

// FuzzImportWire feeds arbitrary (value, count) pairs to ImportWire of every
// kernel-backed aggregate. An import either fails — mismatched lengths, a
// value listed twice with a count — or yields a PAO whose export is a fixed
// point of export∘import and whose answer equals the map model's.
func FuzzImportWire(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 1, 255, 0}, int64(2))
	f.Add([]byte{7, 7}, []byte{1, 2}, int64(3))
	f.Add([]byte{9}, []byte{}, int64(0))
	f.Add([]byte{0, 128, 255}, []byte{3, 0, 3}, int64(-1))
	f.Fuzz(func(t *testing.T, rawVals, rawFreqs []byte, n int64) {
		// One byte per number keeps collisions and duplicates frequent; the
		// spread maps a few bytes onto the int64 edge values.
		spread := func(b byte) int64 {
			switch b {
			case 128:
				return math.MinInt64
			case 127:
				return math.MaxInt64
			}
			return int64(int8(b))
		}
		vals, freqs := make([]int64, len(rawVals)), make([]int64, len(rawFreqs))
		for i, b := range rawVals {
			vals[i] = spread(b)
		}
		for i, b := range rawFreqs {
			freqs[i] = int64(int8(b))
		}
		w := WirePAO{Values: vals, Freqs: freqs, N: n}
		dup := false
		seen := map[int64]bool{}
		for i, v := range vals {
			if i < len(freqs) && freqs[i] != 0 {
				dup = dup || seen[v]
				seen[v] = true
			}
		}
		for _, a := range []Aggregate{TopK{K: 3}, Distinct{}, Max{}, Min{}} {
			p, err := Import(a, w)
			if wantErr := len(vals) != len(freqs) || dup; (err != nil) != wantErr {
				t.Fatalf("%s: import err = %v, want an error: %v", a.Name(), err, wantErr)
			}
			if err != nil {
				continue
			}
			if got, want := p.Finalize(), wireModel(a, vals, freqs, n); !got.Eq(want) {
				t.Fatalf("%s: finalize after import = %+v, model says %+v", a.Name(), got, want)
			}
			first, _ := Export(p)
			again, err := Import(a, first)
			if err != nil {
				t.Fatalf("%s: re-import of our own export: %v", a.Name(), err)
			}
			second, _ := Export(again)
			b1, _ := json.Marshal(first)
			b2, _ := json.Marshal(second)
			if string(b1) != string(b2) || !sort.SliceIsSorted(first.Values, func(i, j int) bool { return first.Values[i] < first.Values[j] }) {
				t.Fatalf("%s: export is not a sorted fixed point: %s then %s", a.Name(), b1, b2)
			}
		}
	})
}
