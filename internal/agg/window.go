package agg

import "math"

// Window is the sliding window w of a query ⟨F,w,N,pred⟩ (paper §2.1). A
// window is attached to each writer node; it admits new values and expires
// old ones, keeping the writer's PAO equal to F over the in-window values.
type Window interface {
	// Add ingests a value with its timestamp, updating pao: expired
	// values are removed from the window (and RemoveValue'd from pao)
	// before the new value is added.
	Add(pao PAO, v int64, ts int64)
	// Expire removes values that have fallen out of the window as of ts
	// (only meaningful for time-based windows).
	Expire(pao PAO, ts int64)
	// Len returns the number of values currently in the window.
	Len() int
	// Snapshot appends the in-window (value, timestamp) pairs to dst,
	// oldest first, and returns the extended slice. Every built-in window
	// retains a contiguous suffix of its writer's insertion sequence, which
	// is what makes checkpoint/recovery aggregate-agnostic: replaying the
	// snapshot through the normal write path rebuilds the window AND every
	// partial aggregate derived from it.
	Snapshot(dst []WindowEntry) []WindowEntry
	// NextExpiry returns the earliest timestamp ts at which Expire(ts)
	// would remove a value currently in the window, and whether such a
	// deadline exists. Windows that never expire by time (count-based
	// windows, empty windows) report false. The deadline is a lower bound
	// that only changes when the oldest value changes — on expiry, or on
	// an empty→non-empty transition — which is what lets callers index it
	// lazily (internal/exec's expiry index) instead of polling every writer.
	NextExpiry() (int64, bool)
	// Clone returns an empty window with the same parameters.
	Clone() Window
}

// WindowEntry is one in-window value with the timestamp it was added at.
type WindowEntry struct {
	V  int64
	TS int64
}

// TupleWindow keeps the most recent C values (the paper's "last c updates").
// C = 1 reproduces the running example's "most recent value" semantics.
type TupleWindow struct {
	C    int
	ring []int64
	tss  []int64 // timestamps parallel to ring, for Snapshot
	head int     // index of oldest
	n    int
}

// NewTupleWindow returns a count-based window over the last c values.
func NewTupleWindow(c int) *TupleWindow {
	if c <= 0 {
		c = 1
	}
	return &TupleWindow{C: c, ring: make([]int64, c), tss: make([]int64, c)}
}

// Add implements Window.
func (w *TupleWindow) Add(pao PAO, v int64, ts int64) {
	if w.n == w.C {
		old := w.ring[w.head]
		pao.RemoveValue(old)
		w.head = (w.head + 1) % w.C
		w.n--
	}
	slot := (w.head + w.n) % w.C
	w.ring[slot] = v
	w.tss[slot] = ts
	w.n++
	pao.AddValue(v)
}

// Expire implements Window; tuple windows never expire by time.
func (w *TupleWindow) Expire(PAO, int64) {}

// NextExpiry implements Window; tuple windows never expire by time.
func (w *TupleWindow) NextExpiry() (int64, bool) { return 0, false }

// Len implements Window.
func (w *TupleWindow) Len() int { return w.n }

// Snapshot implements Window.
func (w *TupleWindow) Snapshot(dst []WindowEntry) []WindowEntry {
	for i := 0; i < w.n; i++ {
		slot := (w.head + i) % w.C
		dst = append(dst, WindowEntry{V: w.ring[slot], TS: w.tss[slot]})
	}
	return dst
}

// Clone implements Window.
func (w *TupleWindow) Clone() Window { return NewTupleWindow(w.C) }

// TimeWindow keeps values written within the last T time units, in a
// circular buffer: the n live values start at buf[head] and wrap around
// len(buf), so a slide costs the values it expires, not the values it
// keeps, and no expired prefix is retained.
type TimeWindow struct {
	T    int64
	buf  []timedVal // len(buf) == cap(buf): every slot is addressable
	head int        // index of the oldest value
	n    int
}

type timedVal struct {
	v  int64
	ts int64
}

// NewTimeWindow returns a time-based window of width t.
func NewTimeWindow(t int64) *TimeWindow {
	if t <= 0 {
		t = 1
	}
	return &TimeWindow{T: t}
}

// slot returns the buffer index of the i-th oldest value, 0 <= i <= n
// (i == n is the next free slot of a ring that is not full).
func (w *TimeWindow) slot(i int) int {
	if i += w.head; i >= len(w.buf) {
		i -= len(w.buf)
	}
	return i
}

// Add implements Window.
func (w *TimeWindow) Add(pao PAO, v int64, ts int64) {
	w.Expire(pao, ts)
	if w.n == len(w.buf) {
		w.grow()
	}
	w.buf[w.slot(w.n)] = timedVal{v, ts}
	w.n++
	pao.AddValue(v)
}

// grow moves a full ring into a larger one, oldest value at index 0. The
// new capacity is whatever append picks for one element past the old one,
// so a window's footprint follows the same growth curve a plain slice's
// would.
func (w *TimeWindow) grow() {
	old := w.buf
	w.buf = append(old, timedVal{})
	w.buf = w.buf[:cap(w.buf)]
	k := copy(w.buf, old[w.head:])
	copy(w.buf[k:], old[:w.head])
	w.head = 0
}

// Expire implements Window: removes values older than ts - T.
func (w *TimeWindow) Expire(pao PAO, ts int64) {
	cut := ts - w.T
	if cut > ts {
		// ts - T underflowed (ts near MinInt64): the window extends past
		// the earliest representable time, so nothing is old enough.
		return
	}
	for w.n > 0 && w.buf[w.head].ts <= cut {
		pao.RemoveValue(w.buf[w.head].v)
		if w.head++; w.head == len(w.buf) {
			w.head = 0
		}
		w.n--
	}
}

// NextExpiry implements Window: the oldest value falls out at its ts + T
// (Expire(ts) removes values with ts' <= ts-T, so the first removal happens
// exactly at its ts + T). The sum saturates at MaxInt64 — a value written
// near the end of time never reports a wrapped-around deadline.
func (w *TimeWindow) NextExpiry() (int64, bool) {
	if w.n == 0 {
		return 0, false
	}
	oldest := w.buf[w.head].ts
	d := oldest + w.T
	if d < oldest {
		d = math.MaxInt64
	}
	return d, true
}

// Len implements Window.
func (w *TimeWindow) Len() int { return w.n }

// Snapshot implements Window.
func (w *TimeWindow) Snapshot(dst []WindowEntry) []WindowEntry {
	for i := 0; i < w.n; i++ {
		tv := w.buf[w.slot(i)]
		dst = append(dst, WindowEntry{V: tv.v, TS: tv.ts})
	}
	return dst
}

// Clone implements Window.
func (w *TimeWindow) Clone() Window { return NewTimeWindow(w.T) }

// AvgWindowSize estimates the average number of in-window values per writer,
// the w used to cost writer nodes as H(w)/L(w) in §4.2. For tuple windows it
// is C; for time windows it must be supplied by the workload (rate × T).
func AvgWindowSize(w Window, ratePerUnit float64) float64 {
	switch win := w.(type) {
	case *TupleWindow:
		return float64(win.C)
	case *TimeWindow:
		s := ratePerUnit * float64(win.T)
		if s < 1 {
			return 1
		}
		return s
	default:
		return 1
	}
}
