package exec

import (
	"sync"

	"repro/internal/overlay"
)

// expiryHeap is the engine's per-writer next-expiry index: a min-heap of
// (deadline, writer slot) entries, one per registered writer, keyed by the
// earliest timestamp at which that writer's time window drops a value
// (agg.Window.NextExpiry). An advance (Apply) pops only the writers whose
// deadline the watermark has passed, so it costs O(expired writers), not
// O(writers).
//
// The index is LAZY: a heap deadline may be stale-early (the window's true
// deadline moved later after an in-write expiry), never stale-late — a due
// writer is always popped, an early pop re-checks the window under the
// writer's mutex and re-registers with the fresh deadline. Membership is
// tracked by nodeState.inExpiryHeap, which is read and written only under
// that writer's ns.mu; the heap's own mutex nests strictly INSIDE ns.mu
// (push while holding ns.mu) or is taken alone (popDue), so there is no
// lock-order cycle. At most one heap entry exists per writer: a writer is
// pushed only on a false→true flag transition (applyAtWriter) or by the
// advance that popped its previous entry (expireWriter re-registration).
//
// Entries are slot numbers of the current snapshot: Rebuild empties the heap
// and re-seeds it from the carried windows' deadlines while it holds the
// engine's gate exclusively.
type expiryHeap struct {
	mu      sync.Mutex
	entries []expiryEntry
	pool    sync.Pool // *[]overlay.NodeRef pop scratch
}

type expiryEntry struct {
	deadline int64
	wref     overlay.NodeRef
}

// push registers a writer's deadline. Callers hold the writer's ns.mu and
// have just transitioned its inExpiryHeap flag to true (or kept it true
// after popping the writer's previous entry).
func (h *expiryHeap) push(deadline int64, wref overlay.NodeRef) {
	h.mu.Lock()
	h.entries = append(h.entries, expiryEntry{deadline, wref})
	// Sift up.
	i := len(h.entries) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.entries[p].deadline <= h.entries[i].deadline {
			break
		}
		h.entries[p], h.entries[i] = h.entries[i], h.entries[p]
		i = p
	}
	h.mu.Unlock()
}

// popDue removes and returns every entry with deadline <= ts, appended to
// dst. The popped writers' inExpiryHeap flags stay true until the caller
// processes each one under its ns.mu (expireWriter), so no concurrent
// write can double-register them in between.
func (h *expiryHeap) popDue(ts int64, dst []overlay.NodeRef) []overlay.NodeRef {
	h.mu.Lock()
	for len(h.entries) > 0 && h.entries[0].deadline <= ts {
		dst = append(dst, h.entries[0].wref)
		last := len(h.entries) - 1
		h.entries[0] = h.entries[last]
		h.entries = h.entries[:last]
		// Sift down.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < last && h.entries[l].deadline < h.entries[min].deadline {
				min = l
			}
			if r < last && h.entries[r].deadline < h.entries[min].deadline {
				min = r
			}
			if min == i {
				break
			}
			h.entries[i], h.entries[min] = h.entries[min], h.entries[i]
			i = min
		}
	}
	h.mu.Unlock()
	return dst
}

// reset empties the index (Rebuild, about to re-seed it).
func (h *expiryHeap) reset() {
	h.mu.Lock()
	h.entries = h.entries[:0]
	h.mu.Unlock()
}

// due reports whether any entry's deadline has been reached — the cheap
// pre-check that keeps watermark advances free when nothing expires.
func (h *expiryHeap) due(ts int64) bool {
	h.mu.Lock()
	ok := len(h.entries) > 0 && h.entries[0].deadline <= ts
	h.mu.Unlock()
	return ok
}

// size returns the number of registered writers (tests).
func (h *expiryHeap) size() int {
	h.mu.Lock()
	n := len(h.entries)
	h.mu.Unlock()
	return n
}

func (h *expiryHeap) getScratch() *[]overlay.NodeRef {
	if p, ok := h.pool.Get().(*[]overlay.NodeRef); ok {
		*p = (*p)[:0]
		return p
	}
	s := make([]overlay.NodeRef, 0, 64)
	return &s
}

func (h *expiryHeap) putScratch(p *[]overlay.NodeRef) {
	h.pool.Put(p)
}
