package exec

import (
	"math/bits"
	"sync"

	"repro/internal/overlay"
)

// expiryIndex is the engine's per-writer next-expiry index: one entry per
// registered writer, keyed by the earliest timestamp at which that writer's
// time window drops a value (agg.Window.NextExpiry). An advance (Apply) pops
// only the writers whose deadline the watermark has passed, so it costs
// O(expired writers), not O(writers).
//
// It is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) over
// order-preserving uint64 keys. Bucket 0 holds the keys at or below last,
// the highest watermark popped so far; bucket i > 0 the keys whose highest
// bit differing from last is bit i-1, so every key of bucket i is below
// every key of bucket i+1. A writer has at most one entry, so the buckets
// are lists linked through per-slot arrays, made on the first push (a
// tuple-windowed engine never pushes): push is O(1), the index keeps
// memory for its slot count only, and popDue empties every bucket below the
// watermark's top differing bit and re-buckets that one, each entry moving
// to a lower bucket.
//
// The index is LAZY: a deadline may be stale-early (the window's true
// deadline moved later after an in-write expiry), never stale-late — a due
// writer is always popped, an early pop re-checks the window under the
// writer's mutex and re-registers with the fresh deadline. Membership is
// tracked by nodeState.inExpiryIndex, which is read and written only under
// that writer's ns.mu; the index's own mutex nests strictly INSIDE ns.mu
// (push while holding ns.mu) or is taken alone (popDue), so there is no
// lock-order cycle. A writer is pushed only on a false→true flag transition
// (applyAtWriter) or by the advance that popped its previous entry
// (expireWriter re-registration).
//
// Entries are slot numbers of the current snapshot: Rebuild resets the index
// to the new slot count and re-seeds it from the carried windows' deadlines
// while it holds the engine's gate exclusively.
type expiryIndex struct {
	mu    sync.Mutex
	last  uint64
	n     int
	slots int
	// nonEmpty has bit i-1 set iff bucket i > 0 holds an entry; bucket 0
	// is empty iff head[0] < 0. low[i] is bucket i's smallest key.
	nonEmpty uint64
	head     [65]overlay.NodeRef
	low      [65]uint64
	next     []overlay.NodeRef
	key      []uint64
}

// expiryKey maps a deadline to a uint64 with the same order.
func expiryKey(deadline int64) uint64 { return uint64(deadline) ^ 1<<63 }

// reset empties the index and sizes it for a snapshot of n slots (New and
// Rebuild, about to seed it).
func (x *expiryIndex) reset(n int) {
	x.mu.Lock()
	if n != x.slots {
		x.next, x.key, x.slots = nil, nil, n
	}
	x.last, x.n, x.nonEmpty = 0, 0, 0
	for i := range x.head {
		x.head[i] = -1
	}
	x.mu.Unlock()
}

// link files slot s, whose key is set, under its bucket relative to last.
func (x *expiryIndex) link(s overlay.NodeRef) {
	k, b := x.key[s], 0
	if k > x.last {
		b = bits.Len64(k ^ x.last)
		x.nonEmpty |= 1 << (b - 1)
	}
	if x.head[b] < 0 || k < x.low[b] {
		x.low[b] = k
	}
	x.next[s], x.head[b] = x.head[b], s
}

// push registers a writer's deadline. Callers hold the writer's ns.mu and
// have just transitioned its inExpiryIndex flag to true (or kept it true
// after popping the writer's previous entry).
func (x *expiryIndex) push(deadline int64, wref overlay.NodeRef) {
	x.mu.Lock()
	if x.next == nil {
		x.next, x.key = make([]overlay.NodeRef, x.slots), make([]uint64, x.slots)
	}
	x.key[wref] = expiryKey(deadline)
	x.link(wref)
	x.n++
	x.mu.Unlock()
}

// popDue removes and returns every entry with deadline <= ts, appended to
// dst. The popped writers' inExpiryIndex flags stay true until the caller
// processes each one under its ns.mu (expireWriter), so no concurrent
// write can double-register them in between. A watermark below last (two
// advances racing) takes only bucket 0's due entries.
func (x *expiryIndex) popDue(ts int64, dst []overlay.NodeRef) []overlay.NodeRef {
	w := expiryKey(ts)
	x.mu.Lock()
	top := 0
	if w > x.last {
		top = bits.Len64(w ^ x.last)
	}
	// Bucket 0, and when w > last every bucket below top, is due whole.
	s := x.head[0]
	x.head[0] = -1
	dst = x.sift(s, w, dst)
	for b := 1; b < top; b++ {
		for s := x.head[b]; s >= 0; s = x.next[s] {
			dst = append(dst, s)
			x.n--
		}
		x.head[b] = -1
	}
	if top > 0 {
		// Bucket top straddles w: its keys agree with w above bit top-1,
		// so each is due or lands in a bucket below top.
		s := x.head[top]
		x.head[top] = -1
		x.nonEmpty &^= 1<<top - 1
		x.last = w
		dst = x.sift(s, w, dst)
	}
	x.mu.Unlock()
	return dst
}

// sift pops the entries of list s with keys <= w into dst and re-files the
// others.
func (x *expiryIndex) sift(s overlay.NodeRef, w uint64, dst []overlay.NodeRef) []overlay.NodeRef {
	for s >= 0 {
		nx := x.next[s]
		if x.key[s] <= w {
			dst = append(dst, s)
			x.n--
		} else {
			x.link(s)
		}
		s = nx
	}
	return dst
}

// due reports whether any entry's deadline has been reached — the cheap
// pre-check that keeps watermark advances free when nothing expires. The
// lowest non-empty bucket holds the smallest key.
func (x *expiryIndex) due(ts int64) bool {
	w := expiryKey(ts)
	x.mu.Lock()
	b := -1
	if x.head[0] >= 0 {
		b = 0
	} else if x.nonEmpty != 0 {
		b = bits.TrailingZeros64(x.nonEmpty) + 1
	}
	ok := b >= 0 && x.low[b] <= w
	x.mu.Unlock()
	return ok
}

// size returns the number of registered writers (tests).
func (x *expiryIndex) size() int {
	x.mu.Lock()
	n := x.n
	x.mu.Unlock()
	return n
}
