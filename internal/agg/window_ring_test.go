package agg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sliceWindow is the naive model TimeWindow's ring is checked against: a
// plain slice, expired by re-slicing.
type sliceWindow struct {
	T    int64
	vals []WindowEntry
	sum  int64 // what a SUM PAO fed by this window must hold
}

func (m *sliceWindow) expire(ts int64) {
	cut := ts - m.T
	if cut > ts {
		return
	}
	for len(m.vals) > 0 && m.vals[0].TS <= cut {
		m.sum -= m.vals[0].V
		m.vals = m.vals[1:]
	}
}

func (m *sliceWindow) add(v, ts int64) {
	m.expire(ts)
	m.vals = append(m.vals, WindowEntry{V: v, TS: ts})
	m.sum += v
}

func (m *sliceWindow) nextExpiry() (int64, bool) {
	if len(m.vals) == 0 {
		return 0, false
	}
	if ts := m.vals[0].TS; ts <= math.MaxInt64-m.T {
		return ts + m.T, true
	}
	return math.MaxInt64, true
}

// satAdd is a + b (b >= 0) saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// TestTimeWindowRingDifferential drives the circular-buffer TimeWindow and
// the slice model through the same random Add / Expire programs and
// compares every observer after every step. Bursts of adds force capacity
// growth while the live region is wrapped around the end of the buffer;
// the time domains cover the ts-T underflow guard (timestamps near
// MinInt64) and the saturating deadline (near MaxInt64).
func TestTimeWindowRingDifferential(t *testing.T) {
	domains := []struct {
		name  string
		start int64
		T     int64
	}{
		{"small", 0, 40},
		{"near-min", math.MinInt64 + 5, 1000},
		{"near-max", math.MaxInt64 - 1500, 150},
	}
	for _, dom := range domains {
		wrapped, grewWrapped := 0, 0 // seeds that got there
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := NewTimeWindow(dom.T)
			m := &sliceWindow{T: dom.T}
			pao := Sum{}.NewPAO()
			now := dom.start
			didWrap, didGrow := false, false
			for step := 0; step < 600; step++ {
				now = satAdd(now, int64(rng.Intn(8))) // repeated timestamps included
				switch rng.Intn(10) {
				case 0: // slide without adding, sometimes far ahead
					ts := satAdd(now, int64(rng.Intn(int(dom.T)*2)))
					w.Expire(pao, ts)
					m.expire(ts)
				case 1: // a burst: grows the ring, usually while wrapped
					for i := 0; i < 20+rng.Intn(60); i++ {
						v := rng.Int63n(1000)
						before := len(w.buf)
						wasWrapped := w.head+w.n > len(w.buf)
						w.Add(pao, v, now)
						m.add(v, now)
						didGrow = didGrow || (wasWrapped && len(w.buf) > before)
					}
				default:
					v := rng.Int63n(1000)
					w.Add(pao, v, now)
					m.add(v, now)
				}
				didWrap = didWrap || w.head+w.n > len(w.buf)

				if w.Len() != len(m.vals) {
					t.Fatalf("%s seed %d step %d: Len = %d, model %d", dom.name, seed, step, w.Len(), len(m.vals))
				}
				if got := w.Snapshot(nil); !slices.Equal(got, m.vals) {
					t.Fatalf("%s seed %d step %d: Snapshot = %v, model %v", dom.name, seed, step, got, m.vals)
				}
				gd, gok := w.NextExpiry()
				wd, wok := m.nextExpiry()
				if gd != wd || gok != wok {
					t.Fatalf("%s seed %d step %d: NextExpiry = %d,%v, model %d,%v", dom.name, seed, step, gd, gok, wd, wok)
				}
				if r := pao.Finalize(); r.Scalar != m.sum || r.Valid != (len(m.vals) > 0) {
					t.Fatalf("%s seed %d step %d: PAO = %+v, model sum %d over %d values", dom.name, seed, step, r, m.sum, len(m.vals))
				}
				// No dead prefix, no slack beyond what append would hold.
				if len(w.buf) != cap(w.buf) || w.head < 0 || (len(w.buf) > 0 && w.head >= len(w.buf)) || w.n > len(w.buf) {
					t.Fatalf("%s seed %d step %d: ring head %d n %d len %d cap %d", dom.name, seed, step, w.head, w.n, len(w.buf), cap(w.buf))
				}
			}
			if didWrap {
				wrapped++
			}
			if didGrow {
				grewWrapped++
			}
		}
		if wrapped < 30 || grewWrapped < 10 {
			t.Fatalf("%s: only %d of 60 programs wrapped and %d grew a wrapped ring", dom.name, wrapped, grewWrapped)
		}
	}
}

// TestTimeWindowRingFootprint pins the memory contract: a window's buffer
// grows exactly as a slice under append would for its peak size, and a
// long slide at a steady size never grows it again (the expired prefix is
// reused, not retained).
func TestTimeWindowRingFootprint(t *testing.T) {
	const peak = 300
	w := NewTimeWindow(peak)
	pao := Sum{}.NewPAO()
	var model []timedVal
	for ts := int64(1); ts <= peak; ts++ {
		w.Add(pao, ts, ts)
		model = append(model, timedVal{ts, ts})
	}
	if cap(w.buf) != cap(model) {
		t.Fatalf("ring capacity %d after %d adds, append gives %d", cap(w.buf), peak, cap(model))
	}
	for ts := int64(peak + 1); ts <= 100*peak; ts++ {
		w.Add(pao, ts, ts)
	}
	if w.Len() != peak || cap(w.buf) != cap(model) {
		t.Fatalf("after a long slide: Len %d cap %d, want %d and %d", w.Len(), cap(w.buf), peak, cap(model))
	}
	if n := testing.AllocsPerRun(1000, func() {
		ts := int64(100*peak) + 1
		w.Add(pao, ts, ts)
	}); n != 0 {
		t.Fatalf("steady-state Add allocates %v times", n)
	}
}
