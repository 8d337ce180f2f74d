package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/overlay"
)

// TestExpiryIndexMatchesSortedReference drives the radix expiry index alone
// against a brute-force reference — the registered (slot, deadline) pairs,
// sorted on every query — through random push, popDue, due and reset
// sequences: deadlines at the int64 edges, negative and duplicated ones,
// pushes at or below the last watermark popped, and watermarks that move
// backwards, as two racing advances can pop them.
func TestExpiryIndexMatchesSortedReference(t *testing.T) {
	const slots = 48
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x expiryIndex
		x.reset(slots)
		ref := map[overlay.NodeRef]int64{}
		last := int64(math.MinInt64)
		// deadline draws from the edges, a small band where duplicates are
		// common, the neighbourhood of the last watermark, and anywhere.
		deadline := func() int64 {
			switch rng.Intn(6) {
			case 0:
				return []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64, -1, 0}[rng.Intn(6)]
			case 1:
				return int64(rng.Intn(16)) - 8
			case 2:
				return last - int64(rng.Intn(4))
			case 3:
				return last + int64(rng.Intn(64))
			default:
				return int64(rng.Uint64())
			}
		}
		var dst []overlay.NodeRef
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				s := overlay.NodeRef(rng.Intn(slots))
				if _, ok := ref[s]; ok {
					continue // one entry per writer, as inExpiryIndex keeps it
				}
				d := deadline()
				x.push(d, s)
				ref[s] = d
			case op < 8:
				ts := deadline()
				if rng.Intn(4) == 0 {
					ts = last - int64(rng.Intn(1000)) // a racing, older advance
				}
				var want []overlay.NodeRef
				for s, d := range ref {
					if d <= ts {
						want = append(want, s)
					}
				}
				if got := x.due(ts); got != (len(want) > 0) {
					t.Fatalf("seed %d step %d: due(%d) = %v with %d due of %v", seed, step, ts, got, len(want), ref)
				}
				dst = x.popDue(ts, dst[:0])
				got := slices.Clone(dst)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: popDue(%d) = %v, want %v (index held %v)", seed, step, ts, got, want, ref)
				}
				for _, s := range want {
					delete(ref, s)
				}
				last = max(last, ts)
			case op < 9:
				if got := x.due(deadline()); got && len(ref) == 0 {
					t.Fatalf("seed %d step %d: empty index reports due", seed, step)
				}
			default:
				if rng.Intn(8) == 0 {
					x.reset(slots)
					clear(ref)
					last = math.MinInt64
				}
			}
			if x.size() != len(ref) {
				t.Fatalf("seed %d step %d: size %d, want %d", seed, step, x.size(), len(ref))
			}
		}
	}
}

// TestExpiryIndexSteadyStateIsFlat checks that a push/popDue cycle allocates
// nothing and that the index keeps memory for its slot count only, however
// many entries have passed through it — and none before its first push:
// its buckets are lists threaded through two per-slot arrays, so no bucket
// holds on to a peak capacity.
func TestExpiryIndexSteadyStateIsFlat(t *testing.T) {
	const slots = 256
	var x expiryIndex
	x.reset(slots)
	if x.next != nil || x.key != nil {
		t.Fatal("an index nothing was pushed to holds slot arrays")
	}
	dst := make([]overlay.NodeRef, 0, slots)
	var ts int64
	cycle := func() {
		for s := 0; s < slots; s++ {
			x.push(ts+int64(s*7%slots), overlay.NodeRef(s))
		}
		for x.size() > 0 {
			ts += 37
			dst = x.popDue(ts, dst[:0])
		}
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("push/popDue cycle allocates %.1f times, want 0", n)
		}
	} else {
		cycle()
	}
	if len(x.next) != slots || cap(x.next) != slots || cap(x.key) != slots {
		t.Fatalf("index of %d slots holds next %d/%d, key %d", slots, len(x.next), cap(x.next), cap(x.key))
	}
	x.reset(slots / 4)
	x.push(0, slots/4-1)
	if cap(x.next) != slots/4 || cap(x.key) != slots/4 {
		t.Fatalf("reset to %d slots kept next %d, key %d", slots/4, cap(x.next), cap(x.key))
	}
}
