package exec

import (
	"repro/internal/graph"
	"repro/internal/overlay"
)

// WriteBatch ingests a batch of content writes serially on the calling
// goroutine, in batch order; non-write events are skipped. With live
// subscriptions, fan-out is coalesced per batch: writes only RECORD the
// push readers they touch, and after the whole batch applied each touched
// reader is finalized and delivered exactly once — N writes into one ego
// network cost one notification, not N.
//
// The engine spawns nothing: multi-core ingest comes from concurrent
// callers (the Ingestor's node-partitioned worker pool, the Runner's write
// pool), each applying its own batch. Safe for concurrent use with Write,
// Read, other WriteBatch calls, and — like every ingest path — with an
// in-flight Grow or online ResyncPushState: each write applies to the
// snapshot current at its writer-lock acquisition (a batch straddling a
// cutover may span two generations) and its deltas are epoch-logged across
// the resync, so none is lost or double-applied.
func (e *Engine) WriteBatch(events []graph.Event) error {
	st := e.state.Load()
	var tc *touchCollector
	if e.notify.Load() != nil {
		tc = e.getTouch()
	}
	for _, ev := range events {
		if ev.Kind != graph.ContentWrite {
			continue
		}
		_ = e.writeOn(st, ev.Node, ev.Value, ev.TS, tc)
	}
	if tc != nil {
		e.flushTouches(tc)
		e.putTouch(tc)
	}
	return nil
}

// touchCollector accumulates the distinct push readers one batch's writes
// reach, with the latest write timestamp seen per reader. mark is an
// epoch-stamped dense array over overlay slots (no clearing between
// batches: a slot is "recorded" iff mark[slot] == stamp), so collection is
// allocation-free in steady state.
type touchCollector struct {
	stamp uint32
	mark  []uint32
	ts    []int64
	refs  []overlay.NodeRef
}

// collect records the push readers a write on writer slot wref touches,
// leaving out those nt has no listener for: most of a hub's readers when
// only a few egos are watched.
func (tc *touchCollector) collect(nt *notifyTable, st *engineState, wref overlay.NodeRef, ts int64) {
	lastTag, tagWide := int32(-1), false
	for _, t := range st.plan.pushReaders[wref] {
		if t.tag != lastTag {
			lastTag, tagWide = t.tag, len(nt.byTag[t.tag]) > 0
		}
		if !tagWide && nt.at(t.ref) == nil {
			continue
		}
		i := int(t.ref)
		if i >= len(tc.mark) {
			tc.growTo(st.plan.top.N)
		}
		if tc.mark[i] != tc.stamp {
			tc.mark[i] = tc.stamp
			tc.refs = append(tc.refs, t.ref)
			tc.ts[i] = ts
		} else if ts > tc.ts[i] {
			tc.ts[i] = ts
		}
	}
}

// growTo resizes the dense arrays (the overlay can grow mid-batch).
func (tc *touchCollector) growTo(n int) {
	if n <= len(tc.mark) {
		return
	}
	mark := make([]uint32, n)
	copy(mark, tc.mark)
	tc.mark = mark
	ts := make([]int64, n)
	copy(ts, tc.ts)
	tc.ts = ts
}

func (e *Engine) getTouch() *touchCollector {
	tc := e.touchPool.Get().(*touchCollector)
	tc.stamp++
	if tc.stamp == 0 {
		// Wrapped: zeroed mark entries would look freshly stamped.
		clear(tc.mark)
		tc.stamp = 1
	}
	tc.refs = tc.refs[:0]
	return tc
}

func (e *Engine) putTouch(tc *touchCollector) { e.touchPool.Put(tc) }

// flushTouches delivers a batch's coalesced notifications: each reader the
// collector recorded (already deduplicated by its mark array) is finalized
// and handed to its subscribers exactly once, with the latest write
// timestamp the batch saw for it.
func (e *Engine) flushTouches(tc *touchCollector) {
	nt := e.notify.Load()
	if nt == nil {
		return
	}
	st := e.state.Load()
	top := st.plan.top
	lastTag := int32(-1)
	var byTag []*Subscription
	for _, ref := range tc.refs {
		// The reader may have vanished or changed annotation across a
		// mid-batch snapshot swap; deliverReader re-checks PAO presence
		// against the current snapshot.
		if int(ref) >= top.N || top.Dead[ref] || top.Kind[ref] != overlay.ReaderNode {
			continue
		}
		if tag := top.ReaderTag(ref); tag != lastTag {
			lastTag = tag
			byTag = nt.byTag[tag]
		}
		e.deliverReader(nt, st, byTag, ref, top.ReaderGID(ref), tc.ts[int(ref)])
	}
}
