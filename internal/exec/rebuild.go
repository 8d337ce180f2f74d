package exec

import (
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// Rebuild is the one way an engine's snapshot changes after New: top — the
// installed Topology with new decisions (WithDecisions), or the Flatten of
// an overlay repaired or re-decided in place or of a different overlay for
// the same query (a recompile) — becomes what the engine executes. Its
// decisions are already made.
//
// Prepared with traffic flowing: the plan is compiled, the snapshot laid out
// and every live subscription re-resolved against the new plan (a node that
// has no reader there drops out of its subscription's coverage until a later
// Rebuild brings the reader back). Cells are inherited
//
//   - by slot when top continues the lineage of the installed snapshot
//     (overlay.Topology.Lineage): no overlay mutation reuses a slot — a
//     removed node's slot is retired, a re-added id opens a new one — so
//     slot i carries on as slot i with its mutex, observation counters,
//     window and, in PAO mode, writer PAO, and skip is not consulted;
//   - by data-graph id otherwise, writers only: a writer of top that the
//     previous overlay also had keeps its mutex, observation counters, window
//     and writer PAO at its new slot, except the ids in skip (nodes the caller
//     deleted, possibly since reused), which start empty like any new writer,
//     with a clone of the window New was given.
//
// Installed under the exclusive gate, so no Apply is in flight: the previous
// snapshot's walk and read counts are folded through its own plan (fold), so
// the new plan never expands them, and its pull memo counts into the
// engine's; push state — fresh cells no other snapshot references, pull memos
// empty — is seeded from the windows, the expiry index is re-seeded
// from their deadlines, and the subscriber table and snapshot are
// published. Every write is therefore either inside a carried window or
// applied to the new snapshot, and nothing slot-indexed straddles the change.
// Reads are not held back: one that began on the previous snapshot finishes
// on it, against value state the install never touches. On error nothing
// changed.
func (e *Engine) Rebuild(top *overlay.Topology, skip map[graph.NodeID]bool) error {
	if err := top.CheckDecisions(); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	old := e.state.Load()
	pl := compilePlan(top)
	if err := e.checkPlan(pl); err != nil {
		return err
	}
	inherit := func(i int) overlay.NodeRef {
		if i < len(old.nodes) {
			return overlay.NodeRef(i)
		}
		return overlay.NoNode
	}
	if top.Lineage() != old.plan.top.Lineage() {
		inherit = func(i int) overlay.NodeRef {
			if top.Dead[i] || top.Kind[i] != overlay.WriterNode || skip[top.GID[i]] {
				return overlay.NoNode
			}
			return old.plan.writer(top.GID[i])
		}
	}
	st := e.buildState(pl, old, inherit)
	// Subscribe resolves against the snapshot it loads under subMu, held
	// from here to the publish: it either ran before this point and is
	// re-resolved here, or sees st. The table itself is built before the
	// gate closes; only its store has to wait for in-flight fan-outs.
	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, sub := range e.subs {
		sub.resolve(pl)
	}
	nt := tableOf(e.subs)

	e.gate.Lock()
	defer e.gate.Unlock()
	held := time.Now()
	e.expiry.reset(top.N)
	old.fold()
	hits, misses := old.memoCounts()
	e.memoHits.Add(hits)
	e.memoMisses.Add(misses)
	// One snapshot buffer and one value buffer serve every writer.
	var snap []agg.WindowEntry
	var vals []int64
	for _, wref := range top.Writers {
		win, ns := st.windows[wref], st.nodes[wref]
		snap, vals = win.Snapshot(snap[:0]), vals[:0]
		for _, en := range snap {
			vals = append(vals, en.V)
		}
		e.seedFromWindow(st, wref, vals)
		deadline, ok := win.NextExpiry()
		if ns.inExpiryIndex = ok; ok {
			e.expiry.push(deadline, wref)
		}
	}
	e.notify.Store(nt)
	e.state.Store(st)
	e.installs.Add(1)
	e.lastHold.Store(int64(time.Since(held)))
	return nil
}

// seedFromWindow rebuilds writer wref's contribution to st's fresh push
// state from vals, its window's contents: the writer's own scalar cell or
// published best, then one walk of its closure. The walk calls the
// propagation kernels directly, not pushRegion, so it counts nothing: a
// seed is not traffic, and one phantom arrival per install at every node
// downstream of a writer would read to the adaptor that caused the install
// as the next window's traffic.
func (e *Engine) seedFromWindow(st *engineState, wref overlay.NodeRef, vals []int64) {
	if e.scalar != nil {
		var sum int64
		for _, v := range vals {
			sum += v
		}
		cell := &st.scalars[wref]
		cell.sum.Store(sum)
		cell.cnt.Store(int64(len(vals)))
		if len(vals) > 0 {
			e.propagateScalar(st, wref, sum, int64(len(vals)))
		}
		return
	}
	if st.best != nil {
		ns := st.nodes[wref]
		ns.mu.Lock()
		st.publish(wref)
		ns.mu.Unlock()
	}
	e.propagate(st, wref, vals, nil)
}

// Installs reports how many snapshots Rebuild has installed and how long the
// most recent install held the gate exclusively — the time writes and
// watermark advances waited for it.
func (e *Engine) Installs() (n int64, lastHold time.Duration) {
	return e.installs.Load(), time.Duration(e.lastHold.Load())
}
