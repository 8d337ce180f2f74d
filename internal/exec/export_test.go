package exec

import (
	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// ExpireAllScan is the reference O(writers) implementation of ExpireAll the
// differential tests compare the indexed path against: a full walk over
// every writer, bypassing the next-expiry index (heap membership is left
// untouched — stale entries are re-checked harmlessly when popped). For any
// ts it leaves identical windows, PAOs and scalar cells and delivers the same
// one Update per touched reader (readers may come in a different order:
// first touch in writer-slot order here, in deadline order there).
func (e *Engine) ExpireAllScan(ts int64) {
	e.gate.RLock()
	defer e.gate.RUnlock()
	st := e.state.Load()
	acc, tc := e.getAccum(st.plan.top.N), e.getTouch(st.plan.top.N)
	for _, wref := range st.plan.top.Writers {
		e.expireWriter(st, wref, ts, false, &acc.rec, tc)
	}
	e.putAccum(acc)
	e.flushTouches(st, tc)
	e.putTouch(tc)
}

// ReadArena is the reference pull evaluation the differential tests compare
// readPull's per-class kernels against: every non-scalar pull read merges
// its inputs' PAOs into the read's arena (computePull) and finalizes the
// result with FinalizeInto, as all of them did before the selection fold and
// the one-shot TOP-K finalize. It counts reads and observations exactly as
// Read does; push readers, scalar engines and unknown nodes read as Read.
func (e *Engine) ReadArena(v graph.NodeID, buf []int64) (agg.Result, error) {
	st := e.state.Load()
	rref := st.plan.reader(v)
	if rref == overlay.NoNode || e.scalar != nil || st.plan.top.Dec[rref] == overlay.Push {
		return e.readOn(st, rref, v, buf)
	}
	e.reads.Add(1)
	rs := e.getReadScratch()
	defer e.putReadScratch(rs)
	return finalizePAO(e.computePull(st, rref, rs), buf), nil
}

// ReadWireArena is ReadArena's wire form: the arena PAO's full export, the
// reference for ReadTaggedWire on single-query engines.
func (e *Engine) ReadWireArena(v graph.NodeID) (agg.WirePAO, error) {
	st := e.state.Load()
	rref := st.plan.reader(v)
	if rref == overlay.NoNode || e.scalar != nil || st.plan.top.Dec[rref] == overlay.Push {
		return e.ReadTaggedWire(0, v)
	}
	e.reads.Add(1)
	rs := e.getReadScratch()
	defer e.putReadScratch(rs)
	w, ok := agg.Export(e.computePull(st, rref, rs))
	if !ok {
		return agg.WirePAO{}, agg.ErrNotWireable
	}
	return w, nil
}
