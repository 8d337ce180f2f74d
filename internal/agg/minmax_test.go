package agg

import (
	"math/rand"
	"testing"
)

// TestExtremumHeapBounded pins the lazy-deletion heap's size: a MAX / MIN
// PAO that is written and expired a million times and never finalized or
// merged — a writer or a partial nobody reads — keeps a heap proportional
// to the values it currently holds, not to the writes it has seen. The
// answer at the end must still be exact.
func TestExtremumHeapBounded(t *testing.T) {
	for _, a := range []Aggregate{Max{}, Min{}} {
		rng := rand.New(rand.NewSource(5))
		p := a.NewPAO().(*extremumPAO)
		var window []int64 // a 64-value sliding window over a wide domain
		peak := 0
		for i := 0; i < 1_000_000; i++ {
			v := rng.Int63n(1 << 30)
			if i%3 == 0 {
				v = rng.Int63n(8) // hot values leave and come back
			}
			p.AddValue(v)
			window = append(window, v)
			if len(window) > 64 {
				p.RemoveValue(window[0])
				window = window[1:]
			}
			peak = max(peak, len(p.heap))
		}
		// At most 65 distinct values are ever held at a push, and a push
		// finds the heap no longer than twice that plus 16.
		if peak > 2*65+17 {
			t.Fatalf("%s: heap peaked at %d entries for a 64-value window", a.Name(), peak)
		}
		want := window[0]
		for _, v := range window {
			if a.Name() == "max" {
				want = max(want, v)
			} else {
				want = min(want, v)
			}
		}
		if got := p.Finalize(); !got.Valid || got.Scalar != want {
			t.Fatalf("%s: after 1M unread writes Finalize = %+v, want %d", a.Name(), got, want)
		}
	}
}

// TestExtremumNegativeTransient replays the reordering the multiset
// tolerates — a removal arriving before its addition — and checks that the
// heap invariant (every positive value has an entry) survives it and a
// rebuild in between.
func TestExtremumNegativeTransient(t *testing.T) {
	p := Max{}.NewPAO().(*extremumPAO)
	p.RemoveValue(90) // early removal: multiplicity -1
	p.AddValue(50)
	if got := p.Finalize(); got.Valid {
		t.Fatalf("size 0 multiset finalized valid: %+v", got)
	}
	p.rebuild()
	p.AddValue(90) // cancels the early removal; 90 must not surface
	p.AddValue(70)
	if got := p.Finalize(); !got.Valid || got.Scalar != 70 {
		t.Fatalf("Finalize = %+v, want 70", got)
	}
	p.AddValue(90)
	if got := p.Finalize(); got.Scalar != 90 {
		t.Fatalf("Finalize = %+v, want 90", got)
	}
	if p.counts.len() != 3 {
		t.Fatalf("counts = %v, want the zero entry deleted", p.counts.slots)
	}
}

// TestExtremumWritePathAllocs: with a typed heap, values outside the
// runtime's small-integer cache (>= 256, where boxing into `any` allocates)
// cost no allocation on the write path once the map and heap have grown.
func TestExtremumWritePathAllocs(t *testing.T) {
	for _, a := range []Aggregate{Max{}, Min{}} {
		p := a.NewPAO()
		const base = int64(1) << 20
		for i := int64(0); i < 64; i++ {
			p.AddValue(base + i)
		}
		for i := int64(0); i < 64; i++ {
			p.RemoveValue(base + i)
		}
		i := int64(0)
		if n := testing.AllocsPerRun(2000, func() {
			v := base + i%64
			p.AddValue(v)
			p.RemoveValue(v)
			i++
		}); n != 0 {
			t.Fatalf("%s: AddValue+RemoveValue of values >= 1<<20 allocates %v times per run, want 0", a.Name(), n)
		}
	}
}

// runExtremumOps interprets data as a program over one MAX or MIN PAO and a
// side PAO (the Merge/Unmerge operand), mirrors every step on plain count
// maps, and checks after every step that Best — and the side's — equals a
// brute-force selection over the positive counts. data[0] picks MAX or MIN,
// data[1] the value domain in 1..40, so a PAO sometimes stays within its
// small table for life and sometimes outgrows it; the rest is (opcode,
// argument) pairs, removals of values never added included.
func runExtremumOps(t testing.TB, data []byte) {
	if len(data) < 2 {
		return
	}
	var a Aggregate = Max{}
	if data[0]%2 == 1 {
		a = Min{}
	}
	domain := 1 + int64(data[1])%40
	p, side := a.NewPAO().(*extremumPAO), a.NewPAO().(*extremumPAO)
	model, sideModel := map[int64]int64{}, map[int64]int64{}
	var total, sideTotal int64
	brute := func(m map[int64]int64, total int64) (best int64, ok bool) {
		if total <= 0 {
			return 0, false
		}
		for v, c := range m {
			if c > 0 && (!ok || p.before(v, best)) {
				best, ok = v, true
			}
		}
		return best, ok
	}
	check := func(step int, what string, q *extremumPAO, m map[int64]int64, total int64) {
		wv, wok := brute(m, total)
		if v, ok := q.Best(); v != wv || ok != wok {
			t.Fatalf("step %d (%s): %s Best = (%d, %v), brute force (%d, %v) over %v, total %d",
				step, what, a.Name(), v, ok, wv, wok, m, total)
		}
		if q.small() && len(q.heap) != 0 {
			t.Fatalf("step %d (%s): small PAO holds a heap of %d", step, what, len(q.heap))
		}
	}

	ops := data[2:]
	for i := 0; i+1 < len(ops); i += 2 {
		v := 1 + int64(ops[i+1])%domain
		var what string
		switch ops[i] % 16 {
		case 0, 1, 2, 3, 4:
			what = "add"
			p.AddValue(v)
			model[v]++
			total++
		case 5, 6, 7: // also removes values never added: counts go to zero and below
			what = "remove"
			p.RemoveValue(v)
			model[v]--
			total--
		case 8, 9:
			what = "side add"
			side.AddValue(v)
			sideModel[v]++
			sideTotal++
		case 10:
			what = "side remove"
			side.RemoveValue(v)
			sideModel[v]--
			sideTotal--
		case 11:
			what = "merge"
			if sv, ok := brute(sideModel, sideTotal); ok {
				model[sv]++
				total++
			}
			p.Merge(side)
		case 12:
			what = "unmerge"
			if sv, ok := brute(sideModel, sideTotal); ok {
				model[sv]--
				total--
			}
			p.Unmerge(side)
		case 13:
			what = "reset"
			if ops[i+1]%4 == 0 {
				p.Reset()
				clear(model)
				total = 0
			} else {
				side.Reset()
				clear(sideModel)
				sideTotal = 0
			}
		case 14:
			what = "wire round trip"
			if err := p.ImportWire(p.ExportWire()); err != nil {
				t.Fatal(err)
			}
		default:
			// Mutates nothing: only the checks below run.
			what = "no-op"
		}
		check(i/2, what, p, model, total)
		check(i/2, what+", side", side, sideModel, sideTotal)
	}
}

// TestExtremumOpsDifferential runs seeded random programs through
// runExtremumOps for MAX and MIN over domains from one value to forty, and
// checks that some of them crossed from the small table to the heap.
func TestExtremumOpsDifferential(t *testing.T) {
	domains := []byte{0, 1, 3, 5, 6, 7, 12, 39}
	for seed := 0; seed < 400; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 2+2*(100+rng.Intn(500)))
		rng.Read(data)
		data[0], data[1] = byte(seed%2), domains[(seed/2)%len(domains)]
		runExtremumOps(t, data)
	}
	// The crossing itself, pinned: the add that resizes the table past
	// smallSlots builds the heap, and the answer does not move.
	p := Max{}.NewPAO().(*extremumPAO)
	for v := int64(1); p.small(); v++ {
		p.AddValue(v)
		if got, _ := p.Best(); got != v {
			t.Fatalf("after adding 1..%d: Best = %d", v, got)
		}
	}
	if len(p.heap) != p.counts.len() {
		t.Fatalf("crossed to a table of %d slots with a heap of %d for %d values", len(p.counts.slots), len(p.heap), p.counts.len())
	}
}

func FuzzExtremumOps(f *testing.F) {
	f.Add([]byte{0, 39, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 5, 8, 13, 0})
	f.Add([]byte{1, 5, 5, 3, 0, 3, 8, 1, 11, 0, 12, 0, 14, 0, 15, 0})
	f.Add([]byte{0, 12, 8, 9, 8, 2, 11, 0, 10, 9, 11, 0, 12, 0, 13, 1, 15, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runExtremumOps(t, data) })
}
