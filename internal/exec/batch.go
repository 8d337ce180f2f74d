package exec

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// Apply is the engine's one write body: it ingests a batch of content writes
// and then closes the time the batch closes, serially on the calling
// goroutine, as one shared section of the engine's gate — one snapshot, one
// accumulator, one touch collector. Non-write events are skipped; advanceTo
// == graph.NoAdvance closes no time. Write is a view of it.
//
// Pass 1 visits the events in batch order and does, per event and under the
// writer's mutex, everything that happens at the writer (applyAtWriter:
// window slide, expiry index, the writer's own cell or PAO), folding the
// resulting delta into that writer's accumulator entry. Then the advance:
// the next-expiry index yields ONLY the writers whose oldest in-window value
// has fallen due by advanceTo — O(expired writers), one bucket test when
// nothing expires — and each expires at the writer the same way and folds
// what it removed into the same entry, as one more logical update
// (expireWriter); tuple windows are unaffected. Pass 2 visits each DISTINCT
// writer once: values the batch both admitted to and evicted from the
// writer's window, by a write or by the advance, cancel (nobody could have
// observed them downstream), and the net delta walks the compiled closure
// once (pushRegion), counted as the m logical updates it stands for. A hot
// writer's thirty writes and its expiry cost one closure walk, not
// thirty-one.
//
// With live subscriptions every push reader pass 2 touches is collected
// along the way and finalized and delivered exactly once at the end, stamped
// with the latest timestamp that reached it (the advance's, for a reader an
// expiry touched): one Update per touched reader per Apply, its value a read
// taken when Apply returns.
//
// Between the passes a concurrent reader may see a writer's own cell ahead
// of its push region by up to this batch; everything is exact when Apply
// returns. The engine spawns nothing: multi-core ingest comes from
// concurrent callers, each applying its own batch with its own accumulator.
// Safe for concurrent use with Read, other Apply calls and Rebuild — a
// Rebuild installs between Applies. Concurrent advances pop disjoint writer
// sets; a write racing an advance is expired by the next one.
func (e *Engine) Apply(events []graph.Event, advanceTo int64) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	st := e.state.Load()
	acc := e.getAccum(st.plan.top.N)
	var n int64
	for i := range events {
		ev := &events[i]
		if ev.Kind != graph.ContentWrite {
			continue
		}
		n++
		wref := st.plan.writer(ev.Node)
		if wref == overlay.NoNode {
			// The node feeds no reader (like g_w in Figure 1(c)): the write
			// is absorbed without any propagation work.
			continue
		}
		dSum, dCnt := e.applyAtWriter(st, wref, ev.Value, ev.TS, &acc.rec)
		if len(st.plan.closureOf(wref)) == 0 {
			continue // nothing downstream (and so no reader to tell)
		}
		if ent := acc.fold(wref, ev.TS, e.scalar != nil, dSum, dCnt); e.scalar == nil {
			ent.add = append(ent.add, ev.Value)
		}
	}
	e.writes.Add(n)
	if advanceTo != graph.NoAdvance && e.expiry.due(advanceTo) {
		acc.due = e.expiry.popDue(advanceTo, acc.due[:0])
		for _, wref := range acc.due {
			e.expireWriter(st, wref, advanceTo, true, acc)
		}
	}
	e.pushAccum(st, acc)
}

// pushAccum is pass 2 of an Apply: each writer with an entry in acc walks
// its closure once with its net delta. Then every reader the walks touched
// is notified once, and acc goes back to the pool.
func (e *Engine) pushAccum(st *engineState, acc *writeAccum) {
	tc := e.getTouch(st.plan.top.N)
	for i := range acc.entries[:acc.n] {
		ent := &acc.entries[i]
		ent.add, ent.rem = cancelCommon(ent.add, ent.rem)
		e.pushRegion(st, ent.wref, &ent.writerDelta, tc)
		ent.writerDelta = writerDelta{add: ent.add[:0], rem: ent.rem[:0]}
	}
	e.putAccum(acc)
	e.flushTouches(st, tc)
	e.putTouch(tc)
}

// Write ingests one content update on data-graph node v (a "write on v"): an
// Apply of one event that closes no time.
func (e *Engine) Write(v graph.NodeID, value int64, ts int64) error {
	ev := [1]graph.Event{{Kind: graph.ContentWrite, Node: v, Value: value, TS: ts}}
	e.Apply(ev[:], graph.NoAdvance)
	return nil
}

// cancelCommon removes from add and rem, in place, the values they have in
// common as multisets: a value a window admitted and evicted inside one
// batch. Both slices come back sorted, which is fine for their consumers —
// PAO maintenance is order-free.
func cancelCommon(add, rem []int64) ([]int64, []int64) {
	if len(add) == 0 || len(rem) == 0 {
		return add, rem
	}
	slices.Sort(add)
	slices.Sort(rem)
	i, j, a, r := 0, 0, 0, 0
	for i < len(add) && j < len(rem) {
		switch {
		case add[i] < rem[j]:
			add[a] = add[i]
			a, i = a+1, i+1
		case add[i] > rem[j]:
			rem[r] = rem[j]
			r, j = r+1, j+1
		default:
			i, j = i+1, j+1
		}
	}
	a += copy(add[a:], add[i:])
	r += copy(rem[r:], rem[j:])
	return add[:a], rem[:r]
}

// writeAccum is the pooled per-batch accumulator behind Apply: one
// entry per distinct writer, found through a stamp-indexed dense array over
// overlay slots (a slot has an entry iff slots[slot].stamp == stamp; no
// clearing between batches), so folding an event is an array test and the
// steady state allocates nothing. rec is the batch's window-expiry
// recorder and due the writers its advance popped.
type writeAccum struct {
	stamp   uint32
	slots   []accSlot
	entries []accEntry // entries[:n] are this batch's, in first-update order
	n       int
	rec     expiryRecorder
	due     []overlay.NodeRef
}

type accSlot struct {
	stamp uint32
	idx   int32
}

// accEntry is one writer's folded delta. The add / rem backing arrays stay
// with the entry across batches.
type accEntry struct {
	wref overlay.NodeRef
	writerDelta
}

// fold adds one logical update on writer wref at ts to its entry, claiming
// the next free one on the writer's first update in the batch: a write or
// an expiry, whose net effect is (dSum, dCnt) in scalar mode and the values
// a.rec.removed evicted otherwise. A write's added value is the caller's to
// append; the pointer is valid until the next call.
func (a *writeAccum) fold(wref overlay.NodeRef, ts int64, scalar bool, dSum, dCnt int64) *accEntry {
	s := &a.slots[wref]
	if s.stamp != a.stamp {
		if a.n == len(a.entries) {
			a.entries = append(a.entries, accEntry{})
		}
		*s = accSlot{stamp: a.stamp, idx: int32(a.n)}
		a.entries[a.n].wref = wref
		a.n++
	}
	ent := &a.entries[s.idx]
	if ent.m == 0 || ts > ent.ts {
		ent.ts = ts
	}
	ent.m++
	if scalar {
		ent.dSum += dSum
		ent.dCnt += dCnt
	} else {
		ent.rem = append(ent.rem, a.rec.removed...)
	}
	return ent
}

// getAccum returns a pooled accumulator for a batch against a snapshot of n
// slots.
func (e *Engine) getAccum(n int) *writeAccum {
	a := e.accPool.Get().(*writeAccum)
	if n > len(a.slots) {
		a.slots = append(a.slots, make([]accSlot, n-len(a.slots))...)
	}
	a.stamp++
	if a.stamp == 0 {
		// Wrapped: zeroed slots would look freshly stamped.
		clear(a.slots)
		a.stamp = 1
	}
	a.n = 0
	return a
}

func (e *Engine) putAccum(a *writeAccum) {
	a.rec.target = nil
	e.accPool.Put(a)
}

// touchCollector accumulates the distinct push readers one Apply's writes
// and expiries reach, with the latest timestamp seen per reader. mark is an
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
	for _, t := range st.plan.pushReadersOf(wref) {
		if t.tag != lastTag {
			lastTag, tagWide = t.tag, len(nt.byTag[t.tag]) > 0
		}
		if !tagWide && nt.at(t.ref) == nil {
			continue
		}
		i := int(t.ref)
		if tc.mark[i] != tc.stamp {
			tc.mark[i] = tc.stamp
			tc.refs = append(tc.refs, t.ref)
			tc.ts[i] = ts
		} else if ts > tc.ts[i] {
			tc.ts[i] = ts
		}
	}
}

// getTouch returns a pooled collector for an Apply against a snapshot of n
// slots.
func (e *Engine) getTouch(n int) *touchCollector {
	tc := e.touchPool.Get().(*touchCollector)
	if n > len(tc.mark) {
		tc.mark = append(tc.mark, make([]uint32, n-len(tc.mark))...)
		tc.ts = append(tc.ts, make([]int64, n-len(tc.ts))...)
	}
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

// flushTouches delivers the coalesced notifications of one Apply: each reader
// the collector recorded (already deduplicated by its mark array) is
// finalized and handed to its subscribers exactly once, with the latest
// timestamp seen for it. st is the
// snapshot the readers were collected from, in the same gate section, so
// each is still a push reader there.
func (e *Engine) flushTouches(st *engineState, tc *touchCollector) {
	nt := e.notify.Load()
	if nt == nil || len(tc.refs) == 0 {
		return
	}
	top := st.plan.top
	lastTag := int32(-1)
	var byTag []*Subscription
	for _, ref := range tc.refs {
		if tag := top.Tag[ref]; tag != lastTag {
			lastTag = tag
			byTag = nt.byTag[tag]
		}
		e.deliverReader(nt, st, byTag, ref, top.GID[ref], tc.ts[int(ref)])
	}
}
