// Package exec implements EAGr's execution model (paper §2.2.2): partial
// aggregate objects maintained at push-annotated overlay nodes, on-demand
// computation at pull nodes, and multi-threaded processing with separate
// read and write pools — the queueing model (per-node micro-tasks) for
// writes and the uni-thread model for reads.
//
// # Compiled plans
//
// At New (and again at every Rebuild), the engine flattens the overlay into
// an immutable compiled plan: a CSR-style topology snapshot
// (contiguous []int32 edge arrays with sign bits, see overlay.Topology)
// plus, for every writer, the precomputed push-region application list —
// the exact multiset of (node, sign) visits a breadth-first propagation
// from that writer would perform. The hot paths therefore never walk the
// pointer-heavy overlay Node/HalfEdge structures and never consult the
// mutable overlay at all: a write is a flat loop over the writer's closure,
// a pull read walks contiguous in-edge slices.
//
// # Allocation-free writes and the scalar fast path
//
// Write-side scratch (the window-expiry recorder and the propagated delta)
// comes from a sync.Pool, so the steady-state write path performs zero heap
// allocations. For invertible scalar aggregates — SUM, COUNT, AVG, anything
// implementing agg.ScalarAggregate — the engine skips PAOs and mutexes on
// the propagation path entirely: each overlay node's partial state is a
// pair of atomic counters (sum, n), writes apply atomic adds along the
// compiled closure, and reads (push or pull) assemble results from atomic
// loads without allocating. Non-scalar aggregates (MAX, TOP-K, DISTINCT)
// keep the per-node mutex + PAO path, still driven by the compiled plan.
// For selections (MAX, MIN — agg.SelectAggregate) every push node a read
// loads publishes its best into a seqlocked per-snapshot cell, under the
// mutex its writer already holds, so reads of them take no lock either.
// A pull read has one kernel per aggregate class, chosen in New: the scalar
// walk; for selections a fold of the inputs' published bests that builds no
// PAO; for the rest a merge into PAOs drawn from a pooled arena, finalized
// once into the caller's buffer (ReadInto), and kept in the reader's memo
// cell until one of the merged inputs changes. Steady-state reads of every
// built-in aggregate are allocation-free. No read counts per input: a read
// counts once at its reader and a push walk once at its writer, and
// Observations expands both through the plan when it drains them.
//
// # Engine state snapshots
//
// An Engine lives as long as the query it executes. All mutable engine state
// lives in one atomically published snapshot, and exactly one transition
// replaces it: Rebuild (rebuild.go), for an overlay that was repaired or
// re-decided in place as much as for a recompiled one. A Rebuild prepares the
// new snapshot with traffic flowing and installs it under a gate that Apply
// holds shared for its duration — inside one such section the snapshot is
// fixed — so writes wait for the install step only.
// Reads are never gated: one that began on an older snapshot finishes on it,
// and every snapshot a reader can observe is internally consistent.
//
// The overlay itself must not be mutated concurrently with the call that
// flattens it, and the engine keeps no reference to it: the plan's Topology
// is all the engine holds of an overlay, and a caller that needs the mutable
// overlay back thaws it from there (overlay.Thaw). Whether a Rebuild carries
// cells over by slot or by writer id is the overlay's lineage, which
// Flatten, Thaw and Clone carry.
//
// # One write body
//
// Everything that mutates a window goes through Apply(events, advanceTo)
// (batch.go): a batch of content writes and the watermark the batch closes,
// applied serially on the caller's goroutine in one gate section,
// writer-major — every event slides its writer's window in batch order, the
// writers the advance made due expire at the writer, both folding into one
// entry per writer, and each DISTINCT writer's net delta walks its push
// closure once — and each touched reader is notified once, at the end. A
// window expiry is one more update on a writer's stream, pushed through the
// same region as a write (paper §2.1, §2.2.2). Write (a batch of one that
// closes no time) is its one-line view; a bare watermark advance is an Apply
// of no events. The engine itself never spawns goroutines for writes:
// parallel ingest is the caller's business, and every entry point is safe
// for concurrent callers.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// Engine executes a compiled query plan: an overlay with dataflow decisions
// plus the aggregate function and the per-writer sliding windows. Writes
// ingest raw values at writer nodes and propagate deltas through the push
// region; reads merge push-side PAOs and compute pull subtrees on demand.
//
// All public methods are safe for concurrent use, with one structural
// caveat: the overlay handed to New or Rebuild must not be mutated
// concurrently with the Rebuild call that flattens it. Apply and Read traffic
// may flow freely meanwhile; a Rebuild holds writes and expiries back for its
// install step only, and reads never.
type Engine struct {
	agg    agg.Aggregate
	scalar agg.ScalarAggregate // non-nil enables the atomic fast path
	sel    agg.SelectAggregate // non-nil: pull reads fold their inputs' bests
	window agg.Window          // New's window, cloned for every fresh writer

	// state is the current compiled-plan + per-node-state snapshot.
	state atomic.Pointer[engineState]
	// rebuildMu serializes Rebuild calls. It is never taken on the
	// read/write hot paths.
	rebuildMu sync.Mutex
	// gate is held shared by everything that applies to a snapshot — Apply,
	// ExportWindows — and exclusively by Rebuild's install step. Inside a
	// shared section the snapshot does not change.
	gate sync.RWMutex
	// installs counts Rebuild's installs; lastHold is how long the most
	// recent one held the gate exclusively, in nanoseconds.
	installs, lastHold atomic.Int64

	// notify is the immutable subscriber table (notify.go); nil whenever no
	// subscription is attached, so the write hot path pays one atomic load
	// and a branch — and allocates nothing — in the unsubscribed case.
	// subs is the list of live subscriptions the table is derived from —
	// including a node-restricted one whose nodes currently have no reader,
	// which the table has no entry for. subMu guards subs and serializes
	// table swaps (Subscribe/Unsubscribe/Rebuild).
	notify atomic.Pointer[notifyTable]
	subMu  sync.Mutex
	subs   []*Subscription

	// expiry is the per-writer next-expiry index: an advance pops only the
	// writers whose time-window deadline the watermark has passed, so it is
	// O(expired writers) instead of a full walk.
	// Writers with no time-based deadline (tuple windows) never enter it.
	expiry expiryIndex

	writes atomic.Int64
	reads  atomic.Int64
	// memoHits and memoMisses carry the pull memo counts of the snapshots
	// Rebuild replaced (PullMemoStats).
	memoHits, memoMisses atomic.Int64

	// readPool pools per-read PAO arenas for non-scalar pull evaluation;
	// accPool pools the per-batch writer accumulators (with the batch's
	// window-expiry recorder) that coalesce push propagation to once per
	// distinct writer per Apply; touchPool pools the reader-touch collectors
	// that coalesce subscription fan-out to once per reader per Apply
	// (batch.go).
	readPool  sync.Pool
	accPool   sync.Pool
	touchPool sync.Pool
}

// engineState is one generation of engine state. The slices are immutable
// after publication; nodes entries, windows and writer PAOs are shared with
// the generation they were inherited from (Rebuild), while the push-side
// value state — scalars, non-writer paos — is built fresh for every
// generation, so a reader still on the previous one keeps seeing its coherent
// values while the next is seeded.
type engineState struct {
	plan    *plan
	nodes   []*nodeState // shared sync/observation cells, one per slot
	scalars []scalarCell // scalar-mode partial state; nil in PAO mode
	paos    []agg.PAO    // PAO-mode partial state; nil in scalar mode
	windows []agg.Window // writer nodes only
	// best holds, for a SelectAggregate, the published best of every push
	// node a read loads (plan.readable); nil for other aggregates.
	best []bestCell
	// memo holds a cell per pull reader slot (nil elsewhere) and ver a
	// version per push node a pull kernel loads (plan.feedsPull), in an
	// engine whose pull kernel merges PAOs and whose plan has a pull reader;
	// both are nil otherwise. See readPull.
	memo []*memoCell
	ver  []atomic.Uint64
}

// nodeState carries one overlay node's synchronization and observation
// counters. It is allocated once per node slot and shared by every snapshot
// that contains the slot, so a goroutine operating on an older snapshot
// still contends on the same mutex and publishes to the same counters.
//
// The hot paths count at the edges of the overlay only: a write bumps its
// writer's pushObs, a push walk adds the writes it stands for to its writer's
// walkObs, and a read counts once at its reader (countRead). fold expands the
// walk and read counts through a plan into the pushObs / pullObs of every
// node a per-visit count would have bumped, so the drained per-node
// observations are what they were when every visit counted itself.
type nodeState struct {
	mu sync.Mutex
	// readObs counts reads in PAO mode other than selections, beside the
	// mutex a push read of them takes (countRead).
	readObs atomic.Int64
	pushObs atomic.Int64
	walkObs atomic.Int64
	pullObs atomic.Int64
	// inExpiryIndex marks a writer slot registered in the engine's
	// next-expiry index (expiry.go). Read and written only under mu, so
	// registration can't be lost to a write racing the advance that popped
	// the slot's entry. Rebuild re-derives it for every live writer
	// while it re-seeds the index.
	inExpiryIndex bool
}

// scalarCell is one overlay node's partial aggregate in scalar mode: the
// running sum of contributions and their count. A torn read across the pair
// is possible mid-write; that is the bounded staleness the queueing model
// already admits. Every snapshot has its own cells, held by value in one
// array, so seeding the next one never exposes half-rebuilt values to readers
// of the current one. reads counts the reads of the slot (countRead).
type scalarCell struct {
	sum   atomic.Int64
	cnt   atomic.Int64
	reads atomic.Int64
}

// bestCell is a selection push node's published answer, the (value, valid)
// pair a read loads without the node's mutex. Stores come only from the
// holder of that mutex, after the PAO mutation they publish; seq is odd while
// one is in progress, so a load that saw it odd, or saw it change, retries
// instead of pairing one store's value with another's validity. reads counts
// the reads of the slot, push or pull (countRead).
type bestCell struct {
	seq   atomic.Uint32
	valid atomic.Bool
	val   atomic.Int64
	reads atomic.Int64
}

// store publishes (v, ok); v is stored as 0 when ok is false. A store that
// would not change the cell is skipped.
func (c *bestCell) store(v int64, ok bool) {
	if !ok {
		v = 0
	}
	if c.val.Load() == v && c.valid.Load() == ok {
		return
	}
	c.seq.Add(1)
	c.val.Store(v)
	c.valid.Store(ok)
	c.seq.Add(1)
}

// load returns the last published (v, ok).
func (c *bestCell) load() (int64, bool) {
	for {
		s := c.seq.Load()
		v, ok := c.val.Load(), c.valid.Load()
		if s&1 == 0 && c.seq.Load() == s {
			return v, ok
		}
		runtime.Gosched() // a store is in progress
	}
}

// publish announces a mutation of push node ref to the reads that do not
// take its mutex: under a SelectAggregate it stores ref's current best into
// its cell when a read can load it; in an engine with pull memos it bumps
// ref's version when a pull kernel loads it. Other aggregates and nodes are
// a no-op. The caller holds ref's mutex and has finished mutating its PAO.
func (st *engineState) publish(ref overlay.NodeRef) {
	if st.best != nil && st.plan.readable[ref] {
		st.best[ref].store(st.paos[ref].(agg.SelectPAO).Best())
	} else if st.ver != nil && st.plan.feedsPull(ref) {
		st.ver[ref].Add(1)
	}
}

// memoCell is a pull reader's last computed answer, kept for as long as
// none of the push inputs its kernel loads has changed: stamp is the sum of
// their versions the answer was computed at (ok is false until one is
// stored). The answer is kept in scalar, valid and list, the last in
// storage the cell owns; listed records whether the answer had a list at
// all — an empty list and none read differently. hits and misses count the lookups that found the
// stamp current or not. Every field is guarded by mu.
type memoCell struct {
	mu                sync.Mutex
	ok, valid, listed bool
	stamp             uint64
	scalar            int64
	list              []int64
	hits, misses      int64
}

// lookup returns the stored answer when it was computed at stamp, its list
// copied into buf[:0] (grown when too small) as a finalizer would write it.
func (c *memoCell) lookup(stamp uint64, buf []int64) (agg.Result, bool) {
	c.mu.Lock()
	if !c.ok || c.stamp != stamp {
		c.misses++
		c.mu.Unlock()
		return agg.Result{}, false
	}
	c.hits++
	res := agg.Result{Scalar: c.scalar, Valid: c.valid}
	if c.listed {
		if res.List = append(buf[:0], c.list...); res.List == nil {
			res.List = []int64{}
		}
	}
	c.mu.Unlock()
	return res, true
}

// store keeps res as the answer computed at stamp, unless another read holds
// the cell: a store never waits.
func (c *memoCell) store(stamp uint64, res agg.Result) {
	if !c.mu.TryLock() {
		return
	}
	c.ok, c.stamp = true, stamp
	c.scalar, c.valid, c.listed = res.Scalar, res.Valid, res.List != nil
	c.list = append(c.list[:0], res.List...)
	c.mu.Unlock()
}

// memoCounts sums the memo cells' hit and miss counts.
func (st *engineState) memoCounts() (hits, misses int64) {
	for _, c := range st.memo {
		if c != nil {
			c.mu.Lock()
			hits, misses = hits+c.hits, misses+c.misses
			c.mu.Unlock()
		}
	}
	return hits, misses
}

// New compiles an engine for the overlay. window is cloned per writer; nil
// means a most-recent-value window (c = 1, as in the paper's running
// example).
func New(ov *overlay.Overlay, a agg.Aggregate, window agg.Window) (*Engine, error) {
	if window == nil {
		window = agg.NewTupleWindow(1)
	}
	if err := ov.CheckDecisions(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	e := &Engine{agg: a, window: window}
	if sa, ok := a.(agg.ScalarAggregate); ok {
		e.scalar = sa
	} else if sa, ok := a.(agg.SelectAggregate); ok {
		if _, ok := a.NewPAO().(agg.SelectPAO); !ok {
			return nil, fmt.Errorf("exec: selection aggregate %s: PAO has no Best", a.Name())
		}
		e.sel = sa
	}
	pl := compilePlan(ov)
	if err := e.checkPlan(pl); err != nil {
		return nil, err
	}
	e.readPool.New = func() any { return &readScratch{} }
	e.accPool.New = func() any { return &writeAccum{} }
	e.touchPool.New = func() any { return &touchCollector{} }
	e.expiry.reset(pl.top.N)
	e.state.Store(e.buildState(pl, nil, nil))
	return e, nil
}

// checkPlan refuses a plan the engine's pull kernel cannot answer: a
// selection has no inverse, so a negative edge under a SelectAggregate
// would subtract one input's best from a union. No production path builds
// one — only VNM_N makes negative edges, and core refuses it for aggregates
// that are not subtractable.
func (e *Engine) checkPlan(pl *plan) error {
	if e.sel == nil {
		return nil
	}
	for _, pe := range pl.top.In {
		if _, neg := overlay.UnpackRef(pe); neg {
			return fmt.Errorf("exec: %s cannot run over an overlay with negative edges", e.agg.Name())
		}
	}
	return nil
}

// buildState assembles a snapshot for the compiled plan pl. Slot i shares
// the cell of prev's slot inherit(i) — lock, counters and, for a writer,
// window and PAO — or starts fresh (writers with a clone of window) where
// that is NoNode or prev is nil. Push-side value state is always fresh: one
// scalar cell per slot, or an empty PAO per non-writer push node, for the
// caller to seed from the windows — and for a selection an empty best cell per
// slot, which the seed publishes into. So are the pull memos: an empty cell
// per pull reader, and versions from zero.
func (e *Engine) buildState(pl *plan, prev *engineState, inherit func(i int) overlay.NodeRef) *engineState {
	n := pl.top.N
	st := &engineState{
		plan:    pl,
		nodes:   make([]*nodeState, n),
		windows: make([]agg.Window, n),
	}
	if e.scalar != nil {
		st.scalars = make([]scalarCell, n)
	} else {
		st.paos = make([]agg.PAO, n)
	}
	if e.sel != nil {
		st.best = make([]bestCell, n)
	}
	for i := 0; i < n; i++ {
		from := overlay.NoNode
		if prev != nil {
			from = inherit(i)
		}
		if from != overlay.NoNode {
			st.nodes[i] = prev.nodes[from]
		} else {
			st.nodes[i] = &nodeState{}
		}
		if pl.top.Dead[i] {
			continue
		}
		switch {
		case pl.top.Kind[i] == overlay.WriterNode:
			if from != overlay.NoNode {
				// The writer's PAO is maintained together with its window
				// under the writer's mutex and is already exact.
				st.windows[i] = prev.windows[from]
				if e.scalar == nil {
					st.paos[i] = prev.paos[from]
				}
			}
			if st.windows[i] == nil {
				st.windows[i] = e.window.Clone()
			}
			if e.scalar == nil && st.paos[i] == nil {
				st.paos[i] = e.agg.NewPAO()
			}
		case pl.top.Dec[i] == overlay.Push && e.scalar == nil:
			st.paos[i] = e.agg.NewPAO()
		}
	}
	if e.scalar == nil && e.sel == nil {
		for i := 0; i < n; i++ {
			if pl.top.Kind[i] != overlay.ReaderNode || pl.top.Dec[i] == overlay.Push {
				continue
			}
			if st.memo == nil {
				st.memo, st.ver = make([]*memoCell, n), make([]atomic.Uint64, n)
			}
			st.memo[i] = &memoCell{}
		}
	}
	return st
}

// Topology returns the current compiled-plan topology snapshot (immutable;
// safe to read concurrently with every engine operation).
func (e *Engine) Topology() *overlay.Topology { return e.state.Load().plan.top }

// expiryRecorder is a window-facing PAO adapter: it captures the values a
// window slide expires (so they can be propagated as removals) and forwards
// Add/Remove to the writer's real PAO when one exists (mutex mode). Only
// AddValue/RemoveValue are ever invoked by windows; the remaining PAO
// methods are inert.
type expiryRecorder struct {
	target  agg.PAO // nil in scalar mode
	removed []int64
}

func (r *expiryRecorder) AddValue(v int64) {
	if r.target != nil {
		r.target.AddValue(v)
	}
}

func (r *expiryRecorder) RemoveValue(v int64) {
	r.removed = append(r.removed, v)
	if r.target != nil {
		r.target.RemoveValue(v)
	}
}

func (r *expiryRecorder) Merge(agg.PAO)        {}
func (r *expiryRecorder) Unmerge(agg.PAO)      {}
func (r *expiryRecorder) Finalize() agg.Result { return agg.Result{} }
func (r *expiryRecorder) Reset()               {}

// readScratch is the pooled PAO arena of one non-scalar pull read: every
// PAO the pull evaluation materializes comes from here, is Reset in place
// on reuse (built-in PAOs retain their slot tables and slices across
// Reset), and returns to the arena when the read finishes — so the
// steady-state pull-read path for MAX/TOP-K/DISTINCT performs zero heap
// allocations. An arena is private to one read; the pool hands it to one
// goroutine at a time.
type readScratch struct {
	paos []agg.PAO
	used int
}

// next returns a reset, arena-owned PAO, growing the arena on first use.
func (rs *readScratch) next(a agg.Aggregate) agg.PAO {
	if rs.used < len(rs.paos) {
		p := rs.paos[rs.used]
		rs.used++
		p.Reset()
		return p
	}
	p := a.NewPAO()
	rs.paos = append(rs.paos, p)
	rs.used++
	return p
}

func (e *Engine) getReadScratch() *readScratch { return e.readPool.Get().(*readScratch) }

func (e *Engine) putReadScratch(rs *readScratch) {
	rs.used = 0
	e.readPool.Put(rs)
}

// finalizePAO finalizes p, steering list-valued results into buf when the
// PAO supports it (agg.IntoFinalizer); buf may be nil.
func finalizePAO(p agg.PAO, buf []int64) agg.Result {
	if f, ok := p.(agg.IntoFinalizer); ok {
		return f.FinalizeInto(buf)
	}
	return p.Finalize()
}

// writerDelta is what one or more logical writes (or one expiry) on a
// single writer changed in that writer's window, in the form its push
// region consumes: (dSum, dCnt) in scalar mode, raw value lists in PAO
// mode. m is the number of logical writes folded in — the walk adds m to the
// writer's walkObs, which the drain expands to m at every closure entry, so
// the §4 frequency inputs count writes, not closure walks — and ts the latest
// of their timestamps.
type writerDelta struct {
	m          int64
	ts         int64
	dSum, dCnt int64
	add, rem   []int64
}

// applyAtWriter is the first half of a write (Apply's pass 1): everything
// that happens at the writer itself, under its mutex — window slide,
// expiry-index registration and the writer's own cell or PAO (published
// when a read loads it). st is the
// snapshot of the caller's gate section; the delta's push region is walked
// on it.
//
// In scalar mode the window's net effect comes back as (dSum, dCnt); in PAO
// mode the evicted values are left in rec.removed (the added one is value).
func (e *Engine) applyAtWriter(st *engineState, wref overlay.NodeRef, value, ts int64, rec *expiryRecorder) (dSum, dCnt int64) {
	ns := st.nodes[wref]
	ns.mu.Lock()
	if st.paos != nil {
		rec.target = st.paos[wref]
	}
	rec.removed = rec.removed[:0]
	st.windows[wref].Add(rec, value, ts)
	if !ns.inExpiryIndex {
		// First value of a time window (or the first since the index popped
		// this writer empty): index its deadline so an advance finds it
		// without walking every writer. Tuple windows report no deadline
		// and never register — the check is one interface call returning
		// false on the count-window hot path.
		if d, ok := st.windows[wref].NextExpiry(); ok {
			ns.inExpiryIndex = true
			e.expiry.push(d, wref)
		}
	}
	if e.scalar != nil {
		dSum, dCnt = value, 1-int64(len(rec.removed))
		for _, r := range rec.removed {
			dSum -= r
		}
		cell := &st.scalars[wref]
		cell.sum.Add(dSum)
		cell.cnt.Add(dCnt)
	} else {
		st.publish(wref)
	}
	ns.mu.Unlock()
	ns.pushObs.Add(1)
	return dSum, dCnt
}

// pushRegion is the second half of a write or an expiry: walk writer wref's
// compiled closure in st once with the delta, count the walk as the d.m
// writes it stands for at the writer, and record the touched push readers in
// tc, so the caller delivers each reader once after everything it is
// applying settled (flushTouches).
func (e *Engine) pushRegion(st *engineState, wref overlay.NodeRef, d *writerDelta, tc *touchCollector) {
	if e.scalar != nil {
		e.propagateScalar(st, wref, d.dSum, d.dCnt)
	} else {
		e.propagate(st, wref, d.add, d.rem)
	}
	st.nodes[wref].walkObs.Add(d.m)
	if nt := e.notify.Load(); nt != nil {
		tc.collect(nt, st, wref, d.ts)
	}
}

// propagate applies a raw-value delta along the writer's compiled push
// closure (mutex + PAO mode), publishing each changed node a read loads.
// Each closure entry corresponds to one edge traversal of the original
// breadth-first walk, so duplicate paths (legal only for
// duplicate-insensitive aggregates) contribute consistent multiplicities
// on both add and remove.
func (e *Engine) propagate(st *engineState, wref overlay.NodeRef, add, remove []int64) {
	if len(add)+len(remove) == 0 {
		return
	}
	for _, pe := range st.plan.closureOf(wref) {
		ref, neg := overlay.UnpackRef(pe)
		a, r := add, remove
		if neg {
			a, r = remove, add
		}
		ns := st.nodes[ref]
		ns.mu.Lock()
		pao := st.paos[ref]
		for _, v := range a {
			pao.AddValue(v)
		}
		for _, v := range r {
			pao.RemoveValue(v)
		}
		st.publish(ref)
		ns.mu.Unlock()
	}
}

// propagateScalar applies a (sum, count) delta along the compiled closure
// with plain atomic adds — no locks, no allocation.
func (e *Engine) propagateScalar(st *engineState, wref overlay.NodeRef, dSum, dCnt int64) {
	for _, pe := range st.plan.closureOf(wref) {
		ref, neg := overlay.UnpackRef(pe)
		cell := &st.scalars[ref]
		if neg {
			cell.sum.Add(-dSum)
			cell.cnt.Add(-dCnt)
		} else {
			cell.sum.Add(dSum)
			cell.cnt.Add(dCnt)
		}
	}
}

// Read evaluates the standing query at data-graph node v (a "read on v")
// and returns the aggregate over N(v).
func (e *Engine) Read(v graph.NodeID) (agg.Result, error) {
	st := e.state.Load()
	return e.readOn(st, st.plan.reader(0, v), v, nil)
}

// ReadInto is Read with a caller-provided result: list-valued answers
// (TOP-K) reuse res.List's backing array when its capacity suffices, so a
// caller that retains res across calls reads without allocating. On return
// *res holds the new answer; its previous contents are overwritten.
func (e *Engine) ReadInto(v graph.NodeID, res *agg.Result) error {
	st := e.state.Load()
	r, err := e.readOn(st, st.plan.reader(0, v), v, res.List)
	*res = r
	return err
}

// ReadTagged evaluates query tag's standing query at v — the per-query
// reader view of a merged multi-query overlay. On single-query engines only
// tag 0 resolves; Read is ReadTagged(0, v).
func (e *Engine) ReadTagged(tag int32, v graph.NodeID) (agg.Result, error) {
	st := e.state.Load()
	return e.readOn(st, st.plan.reader(tag, v), v, nil)
}

// ReadTaggedInto is ReadTagged with a caller-provided result (see ReadInto).
func (e *Engine) ReadTaggedInto(tag int32, v graph.NodeID, res *agg.Result) error {
	st := e.state.Load()
	r, err := e.readOn(st, st.plan.reader(tag, v), v, res.List)
	*res = r
	return err
}

// ReadTaggedWire evaluates query tag's standing query at v like ReadTagged,
// but returns the un-finalized partial aggregate as a wire snapshot instead
// of a Result. This is the shard read path: a coordinator collects one
// snapshot per shard and merges them via agg.MergeWires, so the cross-shard
// answer flows through exactly the Merge/Finalize semantics a single
// process would use. Scalar-mode engines snapshot the atomic (sum, count)
// cell pair directly; PAO-mode engines export under the same locks an
// ordinary read takes.
func (e *Engine) ReadTaggedWire(tag int32, v graph.NodeID) (agg.WirePAO, error) {
	st := e.state.Load()
	rref := st.plan.reader(tag, v)
	if rref == overlay.NoNode {
		return agg.WirePAO{}, fmt.Errorf("exec: read node %d: %w", v, ErrUnknownNode)
	}
	e.reads.Add(1)
	st.countRead(rref)
	if st.plan.top.Dec[rref] == overlay.Push {
		if e.scalar != nil {
			cell := &st.scalars[rref]
			return agg.WirePAO{Sum: cell.sum.Load(), N: cell.cnt.Load()}, nil
		}
		ns := st.nodes[rref]
		ns.mu.Lock()
		w, ok := agg.Export(st.paos[rref])
		ns.mu.Unlock()
		if !ok {
			return agg.WirePAO{}, agg.ErrNotWireable
		}
		return w, nil
	}
	if e.scalar != nil {
		sum, n := e.pullScalar(st, rref)
		return agg.WirePAO{Sum: sum, N: n}, nil
	}
	if e.sel != nil {
		// The fold's answer as one contribution: merged with other shards'
		// wires it selects exactly what the inputs' PAOs would.
		if v, ok := e.pullSelect(st, rref); ok {
			return agg.WirePAO{Values: []int64{v}, Freqs: []int64{1}, N: 1}, nil
		}
		return agg.WirePAO{}, nil
	}
	rs := e.getReadScratch()
	w, ok := agg.Export(e.computePull(st, rref, rs))
	e.putReadScratch(rs)
	if !ok {
		return agg.WirePAO{}, agg.ErrNotWireable
	}
	return w, nil
}

// Covered reports whether node v's standing query result is push-maintained
// (pre-computed on every covering write), i.e. whether a subscription on v
// will observe updates. Pull-annotated readers recompute on demand and are
// not covered; unknown nodes report false.
func (e *Engine) Covered(v graph.NodeID) bool {
	return e.CoveredTagged(0, v)
}

// CoveredTagged is Covered for query tag's reader view of a merged overlay.
func (e *Engine) CoveredTagged(tag int32, v graph.NodeID) bool {
	st := e.state.Load()
	rref := st.plan.reader(tag, v)
	return rref != overlay.NoNode && !st.plan.top.Dead[rref] &&
		st.plan.top.Dec[rref] == overlay.Push
}

// readOn executes one read against a fixed snapshot; rref is the resolved
// reader slot (NoNode reports ErrUnknownNode for v) and buf, when non-nil,
// is offered to the finalizer as the result-list backing array. The read
// counts once, at its reader; the drain expands the count over the nodes a
// pull reader's kernel visits (fold).
func (e *Engine) readOn(st *engineState, rref overlay.NodeRef, v graph.NodeID, buf []int64) (agg.Result, error) {
	if rref == overlay.NoNode {
		return agg.Result{}, fmt.Errorf("exec: read node %d: %w", v, ErrUnknownNode)
	}
	e.reads.Add(1)
	st.countRead(rref)
	top := st.plan.top
	if top.Dec[rref] == overlay.Push {
		if e.scalar != nil {
			cell := &st.scalars[rref]
			return e.scalar.FinalizeScalar(cell.sum.Load(), cell.cnt.Load()), nil
		}
		return e.readPushPAO(st, rref, buf), nil
	}
	return e.readPull(st, rref, buf), nil
}

// countRead counts one read at reader slot ref, in the cell the read touches
// anyway: its scalar cell or best cell — per snapshot, next to the value a
// push read loads — or, for other aggregates, its node cell, beside the mutex
// a push read takes. No write touches a scalar reader's node cell, and a
// selection read loads only its best cell, so a counter in the node cell
// would be a cache line those reads fetch only to count.
func (st *engineState) countRead(ref overlay.NodeRef) {
	switch {
	case st.scalars != nil:
		st.scalars[ref].reads.Add(1)
	case st.best != nil:
		st.best[ref].reads.Add(1)
	default:
		st.nodes[ref].readObs.Add(1)
	}
}

// readPushPAO reads push reader rref in PAO mode: a selection loads its
// published best with no lock, anything else finalizes the reader's PAO
// under its mutex.
func (e *Engine) readPushPAO(st *engineState, rref overlay.NodeRef, buf []int64) agg.Result {
	if e.sel != nil {
		v, ok := st.best[rref].load()
		return agg.Result{Scalar: v, Valid: ok}
	}
	ns := st.nodes[rref]
	ns.mu.Lock()
	res := finalizePAO(st.paos[rref], buf)
	ns.mu.Unlock()
	return res
}

// readPull evaluates pull reader rref with the engine's kernel for its
// aggregate class, chosen once in New: the scalar walk for SUM/COUNT/AVG,
// the selection fold for MAX/MIN, and for everything else (TOP-K, DISTINCT,
// user PAOs) a merge into the read's pooled arena, finalized once. It is
// kept out of readOn so the push branch there compiles as it did before.
//
// The merge kernel's answer is memoized in the reader's cell. Every push
// node a pull kernel loads bumps its version after each mutation, under the
// mutex a merge of it takes (publish), so the sum of the versions of the
// inputs a read loads — monotone — moves whenever one of them changes. A
// read whose sum matches the cell's stamp copies the stored answer. Any
// other computes and stores the answer only when a second sum, taken after
// the merge, matches the first: then no input changed between the two, and
// every PAO the merge locked was at the version the stamp counts.
func (e *Engine) readPull(st *engineState, rref overlay.NodeRef, buf []int64) agg.Result {
	if e.scalar != nil {
		sum, n := e.pullScalar(st, rref)
		return e.scalar.FinalizeScalar(sum, n)
	}
	if e.sel != nil {
		v, ok := e.pullSelect(st, rref)
		return agg.Result{Scalar: v, Valid: ok}
	}
	c := st.memo[rref]
	stamp := st.inputVersion(rref)
	if res, ok := c.lookup(stamp, buf); ok {
		return res
	}
	res := e.pullAnswer(st, rref, buf)
	if st.inputVersion(rref) == stamp {
		c.store(stamp, res)
	}
	return res
}

// inputVersion sums the versions of the push inputs pull node ref's kernel
// loads: computePull's in-edge walk, with loads only.
func (st *engineState) inputVersion(ref overlay.NodeRef) (sum uint64) {
	top := st.plan.top
	for _, pe := range top.InEdges(ref) {
		src, _ := overlay.UnpackRef(pe)
		if top.Dec[src] == overlay.Push {
			sum += st.ver[src].Load()
		} else {
			sum += st.inputVersion(src)
		}
	}
	return sum
}

// pullAnswer computes pull reader rref's answer: its inputs merged into the
// read's pooled arena, finalized once.
func (e *Engine) pullAnswer(st *engineState, rref overlay.NodeRef, buf []int64) agg.Result {
	rs := e.getReadScratch()
	p := e.computePull(st, rref, rs)
	var res agg.Result
	if f, ok := p.(agg.OnceFinalizer); ok {
		res = f.FinalizeOnce(buf)
	} else {
		res = finalizePAO(p, buf)
	}
	e.putReadScratch(rs)
	return res
}

// pullScalar evaluates a pull node on demand in scalar mode: walk the
// compiled in-edge CSR, reading push-side atomic pairs and recursing into
// pull-side inputs. Plain loads only: no allocation, no locks, no counters.
func (e *Engine) pullScalar(st *engineState, ref overlay.NodeRef) (sum, n int64) {
	top := st.plan.top
	for _, pe := range top.InEdges(ref) {
		src, neg := overlay.UnpackRef(pe)
		var s, c int64
		if top.Dec[src] == overlay.Push {
			cell := &st.scalars[src]
			s, c = cell.sum.Load(), cell.cnt.Load()
		} else {
			s, c = e.pullScalar(st, src)
		}
		if neg {
			sum -= s
			n -= c
		} else {
			sum += s
			n += c
		}
	}
	return sum, n
}

// pullSelect evaluates a pull node on demand for a SelectAggregate: walk the
// compiled in-edge CSR like pullScalar, loading each push-side input's
// published best (no mutex, no PAO) and recursing into pull-side inputs, and
// keep the better. A selection over a union is the selection over its parts'
// selections, and an input reached over two paths is offered twice to an
// idempotent choice, so this is exactly the answer a merge of the inputs'
// PAOs would finalize to — without building one. checkPlan guarantees no
// edge is negative; compilePlan marks every push input of a pull node
// readable, so its cell is published.
func (e *Engine) pullSelect(st *engineState, ref overlay.NodeRef) (best int64, ok bool) {
	top := st.plan.top
	for _, pe := range top.InEdges(ref) {
		src, _ := overlay.UnpackRef(pe)
		var v int64
		var has bool
		if top.Dec[src] == overlay.Push {
			v, has = st.best[src].load()
		} else {
			v, has = e.pullSelect(st, src)
		}
		if has && (!ok || e.sel.Better(v, best)) {
			best, ok = v, true
		}
	}
	return best, ok
}

// computePull evaluates a pull node on demand in mutex mode for aggregates
// that have neither a scalar nor a selection kernel: merge push-side inputs'
// PAOs, recurse into pull-side inputs (§2.2.2: "it issues read requests on
// all its upstream overlay nodes, merges all the PAOs it receives"). Working
// PAOs come from the read's arena, never the heap.
func (e *Engine) computePull(st *engineState, ref overlay.NodeRef, rs *readScratch) agg.PAO {
	out := rs.next(e.agg)
	top := st.plan.top
	if top.Kind[ref] == overlay.WriterNode {
		// A writer is always push; computePull on it only happens via
		// direct merge below, not here.
		ns := st.nodes[ref]
		ns.mu.Lock()
		out.Merge(st.paos[ref])
		ns.mu.Unlock()
		return out
	}
	for _, pe := range top.InEdges(ref) {
		src, neg := overlay.UnpackRef(pe)
		if top.Dec[src] == overlay.Push {
			ns := st.nodes[src]
			ns.mu.Lock()
			if neg {
				out.Unmerge(st.paos[src])
			} else {
				out.Merge(st.paos[src])
			}
			ns.mu.Unlock()
			continue
		}
		child := e.computePull(st, src, rs)
		if neg {
			out.Unmerge(child)
		} else {
			out.Merge(child)
		}
	}
	return out
}

// expireWriter advances one writer's window to ts: the per-writer body of
// Apply's advance — the expiry twin of applyAtWriter, whose removals fold
// into the writer's entry in acc as one more logical update for pass 2 to
// push. fromIndex marks a call that consumed the writer's index entry and
// therefore owns its re-registration: under the writer's mutex, after the
// expiry, the window either reports a fresh deadline — pushed back with
// inExpiryIndex kept true — or is deadline-free and the flag clears so the
// next write re-registers. The full-walk reference the tests compare against
// (export_test.go) leaves membership alone: any live entry is still in the
// index and must not be duplicated.
func (e *Engine) expireWriter(st *engineState, wref overlay.NodeRef, ts int64, fromIndex bool, acc *writeAccum) {
	ns := st.nodes[wref]
	rec := &acc.rec
	ns.mu.Lock()
	if st.paos != nil {
		rec.target = st.paos[wref]
	}
	rec.removed = rec.removed[:0]
	st.windows[wref].Expire(rec, ts)
	var dSum int64
	dCnt := -int64(len(rec.removed))
	if len(rec.removed) > 0 && e.scalar != nil {
		for _, r := range rec.removed {
			dSum -= r
		}
		cell := &st.scalars[wref]
		cell.sum.Add(dSum)
		cell.cnt.Add(dCnt)
	} else if len(rec.removed) > 0 {
		st.publish(wref)
	}
	if fromIndex {
		if dl, ok := st.windows[wref].NextExpiry(); ok {
			e.expiry.push(dl, wref)
		} else {
			ns.inExpiryIndex = false
		}
	}
	ns.mu.Unlock()
	if len(rec.removed) > 0 && len(st.plan.closureOf(wref)) > 0 {
		acc.fold(wref, ts, e.scalar != nil, dSum, dCnt)
	}
}

// ExportWindows snapshots every live writer's in-window (value, timestamp)
// entries, oldest first, calling visit once per writer with a non-empty
// window. The entries slice is reused between calls — visit must copy what
// it keeps. Each writer is snapshotted under its write mutex, so a
// concurrent write lands either entirely before or entirely after that
// writer's snapshot; callers wanting a globally consistent cut must fence
// writes themselves (the durability layer checkpoints under its session
// write lock). Because every Window retains a contiguous suffix of its
// writer's insertion sequence, replaying the exported entries through the
// normal write path rebuilds windows, PAOs and scalar cells exactly.
func (e *Engine) ExportWindows(visit func(node graph.NodeID, entries []agg.WindowEntry)) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	st := e.state.Load()
	var buf []agg.WindowEntry
	for _, wref := range st.plan.top.Writers {
		ns := st.nodes[wref]
		ns.mu.Lock()
		buf = st.windows[wref].Snapshot(buf[:0])
		ns.mu.Unlock()
		if len(buf) > 0 {
			visit(st.plan.top.GID[wref], buf)
		}
	}
}

// Windows is the window of every slot, nil but at writers; read-only, and
// the caller keeps writes out while it looks.
func (e *Engine) Windows() []agg.Window { return e.state.Load().windows }

// Counts returns the number of writes and reads processed.
func (e *Engine) Counts() (writes, reads int64) {
	return e.writes.Load(), e.reads.Load()
}

// PullMemoStats reports, over the engine's life, how many pull reads were
// answered from their reader's memo (hits) and how many computed (misses).
// Only engines whose pull reads merge PAOs keep memos; others report zeros.
// A lookup on a snapshot that a Rebuild has already replaced is not counted.
func (e *Engine) PullMemoStats() (hits, misses int64) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	hits, misses = e.state.Load().memoCounts()
	return hits + e.memoHits.Load(), misses + e.memoMisses.Load()
}

// Observations drains the per-node push/pull counters accumulated since the
// last call, for feeding the adaptive scheme: per node, the writes and push
// walks that reached it and the reads whose evaluation visited it. Safe for
// concurrent use. The counts are expanded through the current plan under the
// shared gate (fold), and a Rebuild folds the outgoing snapshot's under its
// exclusive hold, so every walk and read is expanded by the plan it ran on —
// except a read that loaded the outgoing snapshot and counts after that
// fold: it is dropped with the snapshot's cells under SUM/COUNT/AVG and
// MAX/MIN, and otherwise expanded by the next plan (or dropped with its
// reader's cell by a recompile). Folded counts live in the cells a Rebuild
// carries over, so no other observation is lost across an install on the
// same overlay (a recompiled overlay's non-writer slots start from zero).
func (e *Engine) Observations() (pushes, pulls map[overlay.NodeRef]float64) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	st := e.state.Load()
	st.fold()
	pushes = make(map[overlay.NodeRef]float64)
	pulls = make(map[overlay.NodeRef]float64)
	for i, ns := range st.nodes {
		if v := ns.pushObs.Swap(0); v != 0 {
			pushes[overlay.NodeRef(i)] = float64(v)
		}
		if v := ns.pullObs.Swap(0); v != 0 {
			pulls[overlay.NodeRef(i)] = float64(v)
		}
	}
	return pushes, pulls
}

// fold moves the walk and read counts on st's cells into the per-node
// pushObs / pullObs, expanded through st's plan: a writer's walks add to
// every entry of its closure (with its multiplicity), and a reader's reads
// to the reader and, for a pull reader, to every node its kernel visits —
// each pull node on the way and each push input it loads, once per visit.
// Callers hold the gate, so st stays the installed snapshot throughout: a
// walk counting concurrently (under a shared hold) lands in this fold or the
// next one, and under Rebuild's exclusive hold none can.
func (st *engineState) fold() {
	pl := st.plan
	for _, w := range pl.top.Writers {
		if m := st.nodes[w].walkObs.Swap(0); m != 0 {
			for _, pe := range pl.closureOf(w) {
				ref, _ := overlay.UnpackRef(pe)
				st.nodes[ref].pushObs.Add(m)
			}
		}
	}
	for i, ns := range st.nodes {
		c := ns.readObs.Swap(0)
		if st.scalars != nil {
			c += st.scalars[i].reads.Swap(0)
		}
		if st.best != nil {
			c += st.best[i].reads.Swap(0)
		}
		if c != 0 {
			st.expandRead(overlay.NodeRef(i), c)
		}
	}
}

// expandRead adds c reads at ref and, when ref is pull, at every node its
// pull kernel visits.
func (st *engineState) expandRead(ref overlay.NodeRef, c int64) {
	st.nodes[ref].pullObs.Add(c)
	top := st.plan.top
	if top.Dec[ref] == overlay.Push {
		return
	}
	for _, pe := range top.InEdges(ref) {
		src, _ := overlay.UnpackRef(pe)
		st.expandRead(src, c)
	}
}
