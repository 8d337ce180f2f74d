package exec

import (
	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// ExpireAllScan is the reference O(writers) implementation of a bare
// watermark advance (Apply(nil, ts)) the differential tests compare the
// indexed path against: a full walk over every writer, bypassing the
// next-expiry index (index membership is left untouched — stale entries are
// re-checked harmlessly when popped), then Apply's pass 2. For any ts it
// leaves identical windows, PAOs and scalar cells and delivers the same one
// Update per touched reader (readers may come in a different order: first
// touch in writer-slot order here, in the order the index pops writers
// there).
func (e *Engine) ExpireAllScan(ts int64) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	st := e.state.Load()
	acc := e.getAccum(st.plan.top.N)
	for _, wref := range st.plan.top.Writers {
		e.expireWriter(st, wref, ts, false, acc)
	}
	e.pushAccum(st, acc)
}

// ReadArena is the reference pull evaluation the differential tests compare
// readPull's per-class kernels against: every non-scalar pull read merges
// its inputs' PAOs into the read's arena (computePull) and finalizes the
// result with FinalizeInto, as all of them did before the selection fold and
// the one-shot TOP-K finalize. It counts reads and observations exactly as
// Read does; push readers, scalar engines and unknown nodes read as Read.
func (e *Engine) ReadArena(v graph.NodeID, buf []int64) (agg.Result, error) {
	st := e.state.Load()
	rref := st.plan.reader(0, v)
	if rref == overlay.NoNode || e.scalar != nil || st.plan.top.Dec[rref] == overlay.Push {
		return e.readOn(st, rref, v, buf)
	}
	e.reads.Add(1)
	st.countRead(rref)
	rs := e.getReadScratch()
	defer e.putReadScratch(rs)
	return finalizePAO(e.computePull(st, rref, rs), buf), nil
}

// ReadRecompute is Read with the pull memo bypassed: a pull reader of an
// engine that keeps memos gets the answer the merge kernel computes now,
// neither looked up in its cell nor stored there — the reference
// TestPullMemoMatchesRecompute holds memo reads to. It counts reads and
// observations exactly as Read does; every other read is Read's.
func (e *Engine) ReadRecompute(v graph.NodeID, buf []int64) (agg.Result, error) {
	st := e.state.Load()
	rref := st.plan.reader(0, v)
	if rref == overlay.NoNode || st.memo == nil || st.plan.top.Dec[rref] == overlay.Push {
		return e.readOn(st, rref, v, buf)
	}
	e.reads.Add(1)
	st.countRead(rref)
	return e.pullAnswer(st, rref, buf), nil
}

// ReadWireArena is ReadArena's wire form: the arena PAO's full export, the
// reference for ReadTaggedWire on single-query engines.
func (e *Engine) ReadWireArena(v graph.NodeID) (agg.WirePAO, error) {
	st := e.state.Load()
	rref := st.plan.reader(0, v)
	if rref == overlay.NoNode || e.scalar != nil || st.plan.top.Dec[rref] == overlay.Push {
		return e.ReadTaggedWire(0, v)
	}
	e.reads.Add(1)
	st.countRead(rref)
	rs := e.getReadScratch()
	defer e.putReadScratch(rs)
	w, ok := agg.Export(e.computePull(st, rref, rs))
	if !ok {
		return agg.WirePAO{}, agg.ErrNotWireable
	}
	return w, nil
}

// visitCount is the per-visit observation counting the engine did before
// counts moved to the overlay's edges — the reference
// TestObservationsMatchVisitCount holds Observations to. A write bumped its
// writer (applyAtWriter); a push walk standing for m writes bumped every
// closure entry by m (propagate, propagateScalar); a read bumped its reader
// and, for a pull reader, every node the pull kernel visited, once per visit
// (pullScalar, pullSelect, computePull). Each method counts against the
// snapshot the operation runs on. Single-goroutine use only.
type visitCount struct {
	push, pull map[overlay.NodeRef]float64
}

func newVisitCount() *visitCount {
	return &visitCount{push: map[overlay.NodeRef]float64{}, pull: map[overlay.NodeRef]float64{}}
}

// walk counts one walk of writer wref's closure standing for m writes.
func (vc *visitCount) walk(st *engineState, wref overlay.NodeRef, m int64) {
	for _, pe := range st.plan.closureOf(wref) {
		ref, _ := overlay.UnpackRef(pe)
		vc.push[ref] += float64(m)
	}
}

// read counts one read resolved to reader slot rref (NoNode counts nothing).
func (vc *visitCount) read(st *engineState, rref overlay.NodeRef) {
	switch {
	case rref == overlay.NoNode:
	case st.plan.top.Dec[rref] == overlay.Push:
		vc.pull[rref]++
	default:
		vc.pullNode(st, rref)
	}
}

// pullNode counts what the pull kernels counted evaluating pull node ref:
// the node, each push input it loaded, and recursively each pull input.
func (vc *visitCount) pullNode(st *engineState, ref overlay.NodeRef) {
	vc.pull[ref]++
	top := st.plan.top
	for _, pe := range top.InEdges(ref) {
		src, _ := overlay.UnpackRef(pe)
		if top.Dec[src] == overlay.Push {
			vc.pull[src]++
		} else {
			vc.pullNode(st, src)
		}
	}
}

// apply runs e.Apply(events, advanceTo) and counts what it visits: per
// content write with a writer, the writer; per distinct writer, one walk of
// its writes; and one walk per writer the advance expires a value at —
// found on replicas of the windows taken before the call and fed the same
// events.
func (vc *visitCount) apply(e *Engine, events []graph.Event, advanceTo int64) {
	st := e.state.Load()
	replicas := map[overlay.NodeRef]agg.Window{}
	replica := func(w overlay.NodeRef) agg.Window {
		r, ok := replicas[w]
		if !ok {
			r = st.windows[w].Clone()
			for _, en := range st.windows[w].Snapshot(nil) {
				r.Add(&expiryRecorder{}, en.V, en.TS)
			}
			replicas[w] = r
		}
		return r
	}
	walks := map[overlay.NodeRef]int64{}
	for _, ev := range events {
		w := st.plan.writer(ev.Node)
		if ev.Kind != graph.ContentWrite || w == overlay.NoNode {
			continue
		}
		vc.push[w]++
		replica(w).Add(&expiryRecorder{}, ev.Value, ev.TS)
		walks[w]++
	}
	for w, m := range walks {
		vc.walk(st, w, m)
	}
	if advanceTo != graph.NoAdvance {
		for _, w := range st.plan.top.Writers {
			rec := &expiryRecorder{}
			if replica(w).Expire(rec, advanceTo); len(rec.removed) > 0 {
				vc.walk(st, w, 1)
			}
		}
	}
	e.Apply(events, advanceTo)
}

// rebind carries the counts across a Rebuild from snapshot old to next as
// the engine carries its cells: by slot on the overlay already installed,
// otherwise only writers', by data-graph id.
func (vc *visitCount) rebind(old, next *engineState, sameOverlay bool) {
	if sameOverlay {
		return
	}
	top := old.plan.top
	carry := func(m map[overlay.NodeRef]float64) map[overlay.NodeRef]float64 {
		out := map[overlay.NodeRef]float64{}
		for ref, c := range m {
			if top.Kind[ref] != overlay.WriterNode || top.Dead[ref] {
				continue
			}
			if nref := next.plan.writer(top.GID[ref]); nref != overlay.NoNode {
				out[nref] += c
			}
		}
		return out
	}
	vc.push, vc.pull = carry(vc.push), carry(vc.pull)
}

// drain returns the counts since the last drain, like Observations.
func (vc *visitCount) drain() (pushes, pulls map[overlay.NodeRef]float64) {
	pushes, pulls = vc.push, vc.pull
	vc.push, vc.pull = map[overlay.NodeRef]float64{}, map[overlay.NodeRef]float64{}
	return pushes, pulls
}
