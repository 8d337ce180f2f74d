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
