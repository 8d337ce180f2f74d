package agg

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// naiveTopK is the reference finalize: sort every positive entry of the
// model by (count desc, value asc).
func naiveTopK(model map[int64]int64) []valCount {
	var all []valCount
	for v, c := range model {
		if c > 0 {
			all = append(all, valCount{v, c})
		}
	}
	sort.Slice(all, func(i, j int) bool { return before(all[i], all[j]) })
	return all
}

// runTopKOps interprets data as a program over one topk PAO, one distinct
// PAO and a side PAO of each (the Merge/Unmerge operand), mirrors every
// step on plain count maps, and checks the materialized state against the
// maps: after every step the head's array must hold at most its limit of
// 2k entries and an armed head must be a prefix of the naive order, and at
// every finalize step (and at the end) both answers must equal the naive
// ones. data[0] picks k in 1..5 (10 from 250 up) and data[1] the value
// domain in 1..40, so heads are sometimes exhaustive and sometimes at
// capacity; the rest is (opcode, argument) pairs. It returns the most
// entries the head held.
func runTopKOps(t testing.TB, data []byte) (maxHead int) {
	if len(data) < 2 {
		return 0
	}
	k := 1 + int(data[0])%5
	if data[0] >= 250 {
		k = 10
	}
	domain := 1 + int64(data[1])%40
	tk := TopK{K: k}
	p, side := tk.NewPAO().(*topkPAO), tk.NewPAO().(*topkPAO)
	d, dside := Distinct{}.NewPAO().(*distinctPAO), Distinct{}.NewPAO().(*distinctPAO)
	model, sideModel := map[int64]int64{}, map[int64]int64{}
	var total, sideTotal int64
	buf := make([]int64, 0, k)

	checkHead := func(step int) {
		if cap(p.head) > p.lim {
			t.Fatalf("step %d: head array of %d entries, limit %d", step, cap(p.head), p.lim)
		}
		maxHead = max(maxHead, len(p.head))
		if !p.armed {
			return
		}
		want := naiveTopK(model)
		if len(p.head) > 2*k || len(p.head) > len(want) || p.freq.pos != len(want) {
			t.Fatalf("step %d: armed head has %d entries, pos=%d, k=%d, %d positive", step, len(p.head), p.freq.pos, k, len(want))
		}
		for i, e := range p.head {
			if e != want[i] {
				t.Fatalf("step %d: armed head %v is not a prefix of %v", step, p.head, want)
			}
		}
	}
	finalize := func(step int) {
		positive := naiveTopK(model)
		want := positive
		if total <= 0 {
			want = nil
		}
		res := p.FinalizeInto(buf)
		if res.Valid != (len(want) > 0) || len(res.List) != min(k, len(want)) {
			t.Fatalf("step %d: topk = %v, want prefix %d of %v (total %d)", step, res, k, want, total)
		}
		for i, v := range res.List {
			if v != want[i].v {
				t.Fatalf("step %d: topk = %v, want prefix %d of %v", step, res, k, want)
			}
		}
		if got := d.Finalize(); !got.Valid || got.Scalar != int64(len(positive)) {
			t.Fatalf("step %d: distinct = %v, want %d", step, got, len(positive))
		}
	}

	ops := data[2:]
	for i := 0; i+1 < len(ops); i += 2 {
		v := 1 + int64(ops[i+1])%domain
		switch ops[i] % 20 {
		case 0, 1, 2, 3, 4, 5:
			p.AddValue(v)
			d.AddValue(v)
			model[v]++
			total++
		case 6, 7, 8, 9: // also removes values never added: counts go to zero and below
			p.RemoveValue(v)
			d.RemoveValue(v)
			model[v]--
			total--
		case 10, 11:
			side.AddValue(v)
			dside.AddValue(v)
			sideModel[v]++
			sideTotal++
		case 12:
			p.Merge(side)
			d.Merge(dside)
			for sv, c := range sideModel {
				model[sv] += c
			}
			total += sideTotal
		case 13:
			p.Unmerge(side)
			d.Unmerge(dside)
			for sv, c := range sideModel {
				model[sv] -= c
			}
			total -= sideTotal
		case 14:
			if ops[i+1]%4 == 0 {
				p.Reset()
				d.Reset()
				clear(model)
				total = 0
			} else {
				side.Reset()
				dside.Reset()
				clear(sideModel)
				sideTotal = 0
			}
		case 15:
			if err := p.ImportWire(p.ExportWire()); err != nil {
				t.Fatal(err)
			}
			if err := d.ImportWire(d.ExportWire()); err != nil {
				t.Fatal(err)
			}
		case 16:
			// Mutates nothing: only the checks below run.
		default:
			finalize(i / 2)
		}
		checkHead(i / 2)
	}
	finalize(len(ops) / 2)
	checkHead(len(ops) / 2)
	return maxHead
}

// TestTopKHeadDifferential runs seeded random programs through runTopKOps,
// covering every k from 1 to 5 and a spread of domains from one value to
// forty, then k = 10 over forty values: its heads must grow past 16
// entries, where doubling alone would give them 32 slots for a limit of 20.
func TestTopKHeadDifferential(t *testing.T) {
	domains := []byte{0, 1, 2, 4, 7, 12, 19, 39}
	program := func(seed int, k0, domain byte) []byte {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 2+2*(100+rng.Intn(500)))
		rng.Read(data)
		data[0], data[1] = k0, domain
		return data
	}
	for seed := 0; seed < 400; seed++ {
		runTopKOps(t, program(seed, byte(seed%5), domains[(seed/5)%len(domains)]))
	}
	reached := 0
	for seed := 400; seed < 440; seed++ {
		reached = max(reached, runTopKOps(t, program(seed, 250, 39)))
	}
	if reached <= 16 {
		t.Fatalf("k = 10: heads held at most %d entries, want more than 16", reached)
	}
}

func FuzzTopKOps(f *testing.F) {
	f.Add([]byte{2, 39, 0, 1, 0, 2, 0, 2, 19, 0, 6, 2, 19, 0})
	f.Add([]byte{0, 0, 6, 0, 0, 0, 19, 0, 0, 0, 19, 0})
	f.Add([]byte{4, 7, 10, 1, 10, 2, 12, 0, 19, 0, 13, 0, 15, 0, 16, 0, 14, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runTopKOps(t, data) })
}

// TestTopKSkiRentalDisarm checks the maintain-vs-recompute rule: a PAO that
// is written more often than a refill would cost stops maintaining its head
// until the next finalize, and one that is finalized often keeps it.
func TestTopKSkiRentalDisarm(t *testing.T) {
	p := TopK{K: 3}.NewPAO().(*topkPAO)
	for v := int64(0); v < 30; v++ {
		p.AddValue(v)
	}
	if p.armed {
		t.Fatal("a PAO that was never finalized must not be armed")
	}
	p.Finalize()
	if !p.armed {
		t.Fatal("finalize must arm the head")
	}
	for i := 0; i < 15; i++ {
		p.AddValue(int64(i % 30))
		p.RemoveValue(int64(i % 30))
	}
	if !p.armed {
		t.Fatalf("disarmed after %d steps over %d entries", p.steps, p.freq.len())
	}
	p.AddValue(0)
	if p.armed {
		t.Fatalf("still armed after %d steps over %d entries", p.steps, p.freq.len())
	}
	if res := p.Finalize(); !p.armed || res.List[0] != 0 {
		t.Fatalf("finalize after disarm: armed=%v result=%v", p.armed, res)
	}
}

// TestTopKHugeK checks that k, which arrives unchecked from a query spec,
// sizes nothing: the head grows with the positive entries it holds, so an
// absurd k costs what a small one does and answers with every value.
func TestTopKHugeK(t *testing.T) {
	for _, k := range []int{1 << 40, math.MaxInt/2 + 1, math.MaxInt} {
		p := TopK{K: k}.NewPAO().(*topkPAO)
		for v := int64(1); v <= 5; v++ {
			for i := int64(0); i < v; i++ {
				p.AddValue(v)
			}
		}
		if res := p.Finalize(); !slices.Equal(res.List, []int64{5, 4, 3, 2, 1}) {
			t.Fatalf("k=%d: cold finalize = %v", k, res)
		}
		// armed: a new value joins the exhaustive head, an old one leaves it
		p.AddValue(9)
		p.RemoveValue(1)
		if res := p.Finalize(); !p.armed || !slices.Equal(res.List, []int64{5, 4, 3, 2, 9}) {
			t.Fatalf("k=%d: armed=%v finalize = %v", k, p.armed, res)
		}
		if cap(p.head) > 16 {
			t.Fatalf("k=%d: head of %d entries has capacity %d", k, len(p.head), cap(p.head))
		}
	}
}

// TestTopKExhaustiveHeadIgnoresNonPositiveEntries: zero and negative
// counts stay in the map (an out-of-order remove leaves one), but a head
// that holds every positive entry still answers without a refill and keeps
// taking new values by append.
func TestTopKExhaustiveHeadIgnoresNonPositiveEntries(t *testing.T) {
	p := TopK{K: 4}.NewPAO().(*topkPAO)
	p.RemoveValue(7) // -1
	p.RemoveValue(8) // -1, then 0 below
	p.AddValue(8)
	p.AddValue(1)
	p.AddValue(1)
	p.AddValue(2)
	p.Finalize()
	for i, want := range [][]int64{{1, 2, 3}, {1, 2, 3, 7}} {
		switch i {
		case 0:
			p.AddValue(3)
		case 1:
			p.AddValue(7) // -1 -> 0: still not positive
			p.AddValue(7)
		}
		if len(p.head) != len(want) || p.freq.pos != len(want) || !p.armed {
			t.Fatalf("round %d: head %v pos %d armed %v, want %d entries without a refill", i, p.head, p.freq.pos, p.armed, len(want))
		}
		if res := p.Finalize(); !slices.Equal(res.List, want) {
			t.Fatalf("round %d: finalize = %v, want %v", i, res, want)
		}
	}
}

// TestTopKArmedPathsDoNotAllocate pins the steady state of a push reader:
// finalizing an armed PAO into a retained buffer, and writing to an armed
// PAO between finalizes, allocate nothing.
func TestTopKArmedPathsDoNotAllocate(t *testing.T) {
	p := TopK{K: 10}.NewPAO().(*topkPAO)
	for i := int64(0); i < 200; i++ {
		p.AddValue(i % 64)
	}
	buf := make([]int64, 0, 10)
	p.FinalizeInto(buf)
	if allocs := testing.AllocsPerRun(200, func() { p.FinalizeInto(buf) }); allocs != 0 || !p.armed {
		t.Fatalf("armed FinalizeInto: %v allocs/op, armed=%v", allocs, p.armed)
	}
	i := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		// a window slide: one value in, an older one out, then the read
		p.AddValue(i % 64)
		p.RemoveValue((i + 7) % 64)
		if !p.armed {
			t.Fatal("head disarmed between finalizes")
		}
		p.FinalizeInto(buf)
		i++
	})
	if allocs != 0 {
		t.Fatalf("armed AddValue/RemoveValue/FinalizeInto: %v allocs/op", allocs)
	}
}

// TestTopKFinalizeOnceMatchesFinalizeInto is the one-shot finalize's
// property test: on random tables — negative counts from removals that
// overtook their additions, tied counts, Merge-built and armed ones — and
// for k from 1 to beyond the table size (topk(4000000000000000000)
// included), FinalizeOnce answers exactly what FinalizeInto does on a copy,
// with and without a buffer, sizes nothing from k, leaves the head unarmed,
// and a FinalizeInto after it is still exact.
func TestTopKFinalizeOnceMatchesFinalizeInto(t *testing.T) {
	huge, err := Parse("topk(4000000000000000000)")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		domain := 1 + rng.Int63n(30)
		side := TopK{K: 1}.NewPAO().(*topkPAO)
		for i := rng.Intn(40); i > 0; i-- {
			side.AddValue(rng.Int63n(domain))
		}
		table := func(tk Aggregate) *topkPAO {
			p := tk.NewPAO().(*topkPAO)
			r := rand.New(rand.NewSource(seed))
			for i := r.Intn(120); i > 0; i-- {
				if v := r.Int63n(domain); r.Intn(4) == 0 {
					p.RemoveValue(v)
				} else {
					p.AddValue(v)
				}
				if r.Intn(40) == 0 {
					p.FinalizeInto(nil) // armed for the updates that follow
				}
			}
			if seed%3 == 0 {
				p.Merge(side)
			}
			return p
		}
		positive := table(TopK{K: 1}).freq.pos
		for _, tk := range []Aggregate{TopK{K: 1}, TopK{K: 3}, TopK{K: max(1, positive)}, TopK{K: positive + 5}, huge} {
			for _, buf := range [][]int64{nil, make([]int64, 0, 2)} {
				p, q := table(tk), table(tk)
				got := p.FinalizeOnce(buf)
				want := q.FinalizeInto(nil)
				if got.Valid != want.Valid || !slices.Equal(got.List, want.List) || (buf == nil && got.List == nil) {
					t.Fatalf("seed %d %s k=%d: FinalizeOnce = %+v, FinalizeInto = %+v", seed, tk.Name(), p.k, got, want)
				}
				if p.armed {
					t.Fatalf("seed %d k=%d: FinalizeOnce left the head armed", seed, p.k)
				}
				if len(p.head) > min(p.k, p.freq.pos) || cap(p.head) > 2*p.freq.len()+8 {
					t.Fatalf("seed %d k=%d: head of %d entries, capacity %d, over %d positive of %d entries",
						seed, p.k, len(p.head), cap(p.head), p.freq.pos, p.freq.len())
				}
				if again := p.FinalizeInto(nil); !again.Eq(want) {
					t.Fatalf("seed %d k=%d: FinalizeInto after FinalizeOnce = %+v, want %+v", seed, p.k, again, want)
				}
			}
		}
	}
}

// BenchmarkTopKFinalize measures one finalize of a 64-value topk(10) PAO
// into a retained buffer: cold pays the refill (a push reader whose head was
// disarmed), once the one-shot selection of a pull read's arena PAO, armed
// copies the head after one window slide.
func BenchmarkTopKFinalize(b *testing.B) {
	build := func() *topkPAO {
		p := TopK{K: 10}.NewPAO().(*topkPAO)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 400; i++ {
			p.AddValue(1 + rng.Int63n(64))
		}
		return p
	}
	buf := make([]int64, 0, 10)
	b.Run("cold", func(b *testing.B) {
		p := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.armed = false
			benchSink = p.FinalizeInto(buf)
		}
	})
	b.Run("once", func(b *testing.B) {
		p := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = p.FinalizeOnce(buf)
		}
	})
	b.Run("armed", func(b *testing.B) {
		p := build()
		p.FinalizeInto(buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := int64(1 + i%64)
			p.AddValue(v)
			p.RemoveValue(v)
			benchSink = p.FinalizeInto(buf)
		}
	})
}

var benchSink Result
