package exec

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
