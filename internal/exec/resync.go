package exec

// Online, epoch-tagged resynchronization of push-side state (paper §6:
// adaptive re-optimization must proceed while the update stream keeps
// flowing). ResyncPushState rebuilds every push node's partial aggregate
// from the writer windows WITHOUT quiescing writes:
//
//  1. A delta log is installed (e.log). From that point on, every applied
//     write or expiry delta is appended — under the writer's mutex the
//     write path already holds — tagged with the epoch of the snapshot it
//     was applied to.
//  2. For each writer, under its mutex, the resync snapshots the window
//     contents ("the frozen epoch") and records the log cut: deltas before
//     the cut are already inside the snapshot, deltas after it are not.
//  3. The scalar-state (or PAO-state) rebuild runs in the background
//     against the frozen window contents, into value cells that only the
//     new snapshot references — readers of the old snapshot keep seeing
//     coherent pre-resync aggregates throughout.
//  4. Deltas logged after each writer's cut are replayed into the new
//     snapshot, then the snapshot is published with one atomic store (the
//     cutover). Deltas from snapshots older than the cutover epoch are
//     replayed; deltas tagged with the new epoch were applied directly by
//     their writers and are skipped.
//  5. A final drain pass locks each writer's mutex once more and replays
//     the log tail, then uninstalls the log.
//
// Correctness rests on three facts. First, per-writer ordering: log
// appends, window reads and the cut are all serialized by the writer's
// mutex. Second, the mutex doubles as the cutover fence: the write path
// re-resolves the current snapshot under the writer's mutex (engine.go
// applyAtWriter), and the cutover store happens-before the drain's lock of each
// writer, which happens-before any later lock acquisition — so once the
// drain has locked a writer, every subsequent write on it observes the new
// snapshot and applies (and epoch-tags) its delta there directly; an
// old-epoch delta can never appear after the drain has passed its writer.
// Third, delta commutativity: replayed deltas and directly-applied
// post-cutover deltas may interleave out of order downstream, but both
// scalar (sum, n) pairs and the built-in PAO multisets tolerate reordered
// add/remove pairs (multiplicities may go transiently negative and
// converge). Readers therefore never observe half-rebuilt aggregates —
// only the bounded staleness the queueing model already admits.

import (
	"fmt"
	"sync"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// deltaRec is one logged state delta: what a single write (or window
// expiry) contributed to the snapshot tagged by epoch. Scalar mode uses
// (dSum, dCnt); PAO mode uses the raw added value and the expired values.
type deltaRec struct {
	epoch      uint64
	dSum, dCnt int64 // scalar-mode delta
	add        int64 // PAO mode: the ingested value (valid when hasAdd)
	hasAdd     bool
	rem        []int64 // PAO mode: values the window expired (owned copy)
}

// paoDelta builds a PAO-mode log record, copying the expired values (the
// caller's slice is pooled scratch). This is the only allocation the write
// path can perform, and only while a resync is in flight.
func paoDelta(epoch uint64, add int64, hasAdd bool, removed []int64) deltaRec {
	rec := deltaRec{epoch: epoch, add: add, hasAdd: hasAdd}
	if len(removed) > 0 {
		rec.rem = append([]int64(nil), removed...)
	}
	return rec
}

// logSegSize is the record capacity of one delta-log segment. Small enough
// that a recycled segment is cheap to keep around, large enough that a
// write-storm resync appends with amortized-zero segment churn.
const logSegSize = 256

// logSeg is one fixed-capacity run of log records.
type logSeg struct {
	recs []deltaRec
}

// deltaLog is the per-writer delta log of one online resync. writers is
// indexed by writer NodeRef; each entry is appended to and drained only
// under that writer's nodeState mutex, so concurrent writers never contend
// with each other on the log.
//
// The log is SEGMENTED: records live in fixed-size segments, the replay
// drains head-forward, and fully drained segments return to a shared free
// list for reuse by any writer. Log memory is therefore proportional to
// the records not yet replayed, not to everything a long resync on a huge
// overlay ever appended.
type deltaLog struct {
	writers []writerLog

	// freeMu guards the shared segment free list (writers recycle and
	// reuse across each other); allocSegs counts segments ever allocated,
	// exposed so tests can assert recycling bounds memory.
	freeMu    sync.Mutex
	free      []*logSeg
	allocSegs int
}

// writerLog is one writer's pending records: segs[0] is the drain head
// (off records of it already replayed); only the last segment may be
// partially filled.
type writerLog struct {
	segs []*logSeg
	off  int
}

func newDeltaLog(n int) *deltaLog { return &deltaLog{writers: make([]writerLog, n)} }

func (lg *deltaLog) getSeg() *logSeg {
	lg.freeMu.Lock()
	defer lg.freeMu.Unlock()
	if n := len(lg.free); n > 0 {
		s := lg.free[n-1]
		lg.free[n-1] = nil
		lg.free = lg.free[:n-1]
		return s
	}
	lg.allocSegs++
	return &logSeg{recs: make([]deltaRec, 0, logSegSize)}
}

func (lg *deltaLog) putSeg(s *logSeg) {
	clear(s.recs) // drop rec.rem references before reuse
	s.recs = s.recs[:0]
	lg.freeMu.Lock()
	lg.free = append(lg.free, s)
	lg.freeMu.Unlock()
}

// record appends a delta for writer w. Caller holds w's nodeState mutex.
func (lg *deltaLog) record(w overlay.NodeRef, rec deltaRec) {
	wl := &lg.writers[w]
	n := len(wl.segs)
	if n == 0 || len(wl.segs[n-1].recs) == logSegSize {
		wl.segs = append(wl.segs, lg.getSeg())
		n++
	}
	seg := wl.segs[n-1]
	seg.recs = append(seg.recs, rec)
}

// pop removes and returns writer w's oldest pending record, recycling the
// head segment once it is fully drained. ok is false when nothing is
// pending. Caller holds w's nodeState mutex.
func (lg *deltaLog) pop(w overlay.NodeRef) (rec deltaRec, ok bool) {
	wl := &lg.writers[w]
	if len(wl.segs) == 0 {
		return deltaRec{}, false
	}
	head := wl.segs[0]
	if wl.off >= len(head.recs) {
		// Fully consumed head: it is also the append target (only the
		// last segment can be partial), so nothing is pending.
		return deltaRec{}, false
	}
	rec = head.recs[wl.off]
	wl.off++
	if wl.off == logSegSize {
		wl.segs[0] = nil
		wl.segs = wl.segs[1:]
		wl.off = 0
		lg.putSeg(head)
	}
	return rec, true
}

// dropAll discards writer w's pending records, recycling their segments —
// used at the freeze point: deltas serialized before the window snapshot
// are already inside it and must never be replayed. Caller holds w's
// nodeState mutex.
func (lg *deltaLog) dropAll(w overlay.NodeRef) {
	wl := &lg.writers[w]
	for i, s := range wl.segs {
		lg.putSeg(s)
		wl.segs[i] = nil
	}
	wl.segs = wl.segs[:0]
	wl.off = 0
}

// pending returns writer w's unreplayed record count. Caller holds w's
// nodeState mutex.
func (lg *deltaLog) pending(w overlay.NodeRef) int {
	wl := &lg.writers[w]
	n := 0
	for _, s := range wl.segs {
		n += len(s.recs)
	}
	return n - wl.off
}

// ResyncPushState recompiles the plan and rebuilds the partial state of
// push aggregation nodes bottom-up from the writer windows. Call it after
// dataflow decisions change (e.g. an adaptive rebalance flipped pull nodes
// to push). The resync is fully online: Write, WriteBatch, Read and
// ExpireAll may run concurrently throughout — concurrent deltas are
// captured in an epoch-tagged log and replayed across the atomic cutover,
// so no write is lost and readers never see a half-rebuilt aggregate. Only
// structural overlay mutations must not run concurrently; the snapshot
// transitions serialize among themselves.
func (e *Engine) ResyncPushState() error {
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	if _, err := e.ov.TopoOrder(); err != nil {
		return err
	}
	old := e.state.Load()
	st := e.buildState(compilePlan(e.ov), old, old.sameSlot, e.window)
	top := st.plan.top
	e.freshPushState(st)
	// Install the delta log: from here on, every applied delta is
	// recorded under its writer's mutex, tagged with its snapshot epoch.
	nSlots := top.N
	if n := len(old.plan.closure); n > nSlots {
		nSlots = n
	}
	lg := newDeltaLog(nSlots)
	e.log.Store(lg)
	// Frozen-epoch rebuild: per writer, snapshot the window under the
	// writer's mutex and DROP the deltas logged so far — they are already
	// inside the snapshot (the mutex serialized them before the read) and
	// must never replay; dropping also recycles their segments
	// immediately, so the log holds only post-freeze records. Then rebuild
	// the writer's base contribution outside the lock.
	for _, wref := range top.Writers {
		ns := st.nodes[wref]
		ns.mu.Lock()
		vals := st.windows[wref].Values()
		lg.dropAll(wref)
		ns.mu.Unlock()
		e.seedFromWindow(st, wref, vals)
	}
	// Catch-up replay, then the atomic cutover.
	e.replayLog(st, lg)
	e.state.Store(st)
	// Final drain. replayLog locks every writer's mutex at least once
	// after the cutover store above, which fences the write path: any
	// write locking a writer after the drain visited it is guaranteed to
	// observe the new snapshot (applyAtWriter re-resolves under the mutex) and
	// applies its delta there directly. Old-epoch tail deltas are all in
	// the log by then and get replayed here exactly once.
	e.replayLog(st, lg)
	e.log.Store(nil)
	return nil
}

// freshPushState gives st value state no other snapshot references, for the
// rebuild to fill. In scalar mode every slot gets a new cell (writers
// included: their base is re-derived from the window); in PAO mode writer
// PAOs stay shared — they are maintained together with the window under the
// writer's mutex and are already exact — while non-writer push nodes get
// empty PAOs and pull nodes carry none.
func (e *Engine) freshPushState(st *engineState) {
	top := st.plan.top
	for i := 0; i < top.N; i++ {
		switch {
		case e.scalar != nil:
			st.scalars[i] = &scalarCell{}
		case top.Dead[i] || top.Kind[i] == overlay.WriterNode:
		case top.Dec[i] == overlay.Push:
			st.paos[i] = e.agg.NewPAO()
		default:
			st.paos[i] = nil
		}
	}
}

// seedFromWindow rebuilds writer wref's contribution to st's fresh push
// state from vals, its window's contents: the writer's own scalar cell, then
// one walk of its closure — counted as zero writes, which is what it is: a
// walk that bumped pushObs would hand every node downstream of a writer one
// phantom arrival per resync, and the adaptor that caused the resync would
// read them as the next window's traffic.
func (e *Engine) seedFromWindow(st *engineState, wref overlay.NodeRef, vals []int64) {
	if e.scalar != nil {
		var sum int64
		for _, v := range vals {
			sum += v
		}
		cell := st.scalars[wref]
		cell.sum.Store(sum)
		cell.cnt.Store(int64(len(vals)))
		if len(vals) > 0 {
			e.propagateScalar(st, wref, sum, int64(len(vals)), 0)
		}
	} else if len(vals) > 0 {
		e.propagate(st, wref, vals, nil, 0)
	}
}

// Rebuild moves the engine onto ov, a different overlay for the same query
// (a recompile: the previous overlay could not be repaired in place, or its
// reader ids were re-strided), whose decisions are already made. It is the
// third snapshot transition, and the only one that renumbers slots:
//
//   - every writer of ov that the previous overlay also had keeps its cell —
//     mutex, window object and, in PAO mode, writer PAO — found by data-graph
//     id; writers in skip (ids the caller deleted, possibly since reused)
//     and new writers start empty, with a clone of window;
//   - push state is rebuilt from the windows, as in ResyncPushState;
//   - live subscriptions are re-resolved against the new plan (a node that
//     lost its reader drops out of its subscription's coverage until a
//     later Rebuild brings the reader back);
//   - the expiry index is re-seeded from the windows' deadlines.
//
// Compiling the plan, laying out the snapshot and re-resolving the
// subscriptions happen with traffic flowing. The install — seed, re-seed,
// publish — holds the gate exclusively: no Write, WriteBatch or ExpireAll is in flight, so no delta
// log is needed, every write is either inside a carried window or applied to
// the new snapshot, and nothing slot-indexed straddles the renumbering.
// Reads are not held back; one that began on the previous snapshot finishes
// on it. ov must not be mutated during the call. On error nothing changed.
func (e *Engine) Rebuild(ov *overlay.Overlay, window agg.Window, skip map[graph.NodeID]bool) error {
	if window == nil {
		window = agg.NewTupleWindow(1)
	}
	if err := ov.CheckDecisions(); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	old := e.state.Load()
	pl := compilePlan(ov)
	top := pl.top
	st := e.buildState(pl, old, func(i int) overlay.NodeRef {
		if top.Dead[i] || top.Kind[i] != overlay.WriterNode || skip[top.GID[i]] {
			return overlay.NoNode
		}
		return old.plan.writer(top.GID[i])
	}, window)
	e.freshPushState(st)
	// Subscribe resolves against the snapshot it loads under subMu, held
	// from here to the publish: it either ran before this point and is
	// re-resolved here, or sees st. The table itself is built before the
	// gate closes; only its store has to wait for in-flight fan-outs.
	e.subMu.Lock()
	defer e.subMu.Unlock()
	var nt *notifyTable
	for _, sub := range e.subs {
		sub.resolve(pl)
		nt = nt.with(sub)
	}

	e.gate.Lock()
	defer e.gate.Unlock()
	e.expiry.reset()
	for _, wref := range top.Writers {
		win, ns := st.windows[wref], st.nodes[wref]
		e.seedFromWindow(st, wref, win.Values())
		deadline, ok := win.NextExpiry()
		if ns.inExpiryHeap = ok; ok {
			e.expiry.push(deadline, wref)
		}
	}
	e.notify.Store(nt)
	e.ov = ov
	e.state.Store(st)
	return nil
}

// replayLog drains every pending logged delta into the new snapshot st,
// consuming the segmented log head-forward (drained segments recycle to
// the free list, so successive passes resume where the last stopped and
// log memory stays bounded by the unreplayed tail). Deltas tagged with
// st's own epoch were applied directly by their writers after the cutover
// and are consumed without reapplying. Records are popped under the
// writer's mutex (appends happen there) and applied outside it;
// application is commutative, so interleaving with concurrent
// post-cutover writes is safe.
func (e *Engine) replayLog(st *engineState, lg *deltaLog) {
	var addBuf [1]int64
	for w := range lg.writers {
		wref := overlay.NodeRef(w)
		if int(wref) >= len(st.nodes) {
			continue
		}
		ns := st.nodes[wref]
		for {
			ns.mu.Lock()
			rec, ok := lg.pop(wref)
			ns.mu.Unlock()
			if !ok {
				break
			}
			if rec.epoch == st.epoch {
				continue
			}
			if e.scalar != nil {
				cell := st.scalars[wref]
				cell.sum.Add(rec.dSum)
				cell.cnt.Add(rec.dCnt)
				e.propagateScalar(st, wref, rec.dSum, rec.dCnt, 1)
			} else {
				// The writer's own PAO is shared with the old snapshot and
				// was updated by the original write; only the downstream
				// push region needs the replay.
				var add []int64
				if rec.hasAdd {
					addBuf[0] = rec.add
					add = addBuf[:1]
				}
				e.propagate(st, wref, add, rec.rem, 1)
			}
		}
	}
}
