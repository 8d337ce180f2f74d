package core

import (
	"time"

	"repro/internal/dataflow"
)

// This file is the system's one adaptivity pass, Rebalance: it drains the
// engine's live push/pull observations into the §4.8 adaptor and applies
// the frontier flips they justify. POST /rebalance, Session.Rebalance and
// each tick of the session's autotune loop all run it.

// AdaptivityStats is the externally visible adaptivity state of one system:
// monotonic totals of the push/pull observations drained from the engine,
// of the rebalance passes and of their flips, available whether or not the
// autotune loop is running.
type AdaptivityStats struct {
	// PushObserved/PullObserved are the total observation counts drained
	// from the engine's per-node counters since the system started.
	PushObserved int64 `json:"pushObserved"`
	PullObserved int64 `json:"pullObserved"`
	// Rebalances counts Rebalance passes and Flips the frontier decisions
	// they flipped; LastRebalanceNano is the wall-clock time of the most
	// recent pass (UnixNano; 0 if no pass has run).
	Rebalances        int64 `json:"rebalances"`
	Flips             int64 `json:"flips"`
	LastRebalanceNano int64 `json:"lastRebalanceNano"`
	// Installs counts the engine snapshots installed since the system
	// started — one per rebalance that flipped, structural run, member
	// attach or retire, re-optimization or recompile — and
	// LastInstallHoldMicros is how long the most recent one held writes and
	// watermark advances back (reads are never held).
	Installs              int64 `json:"installs"`
	LastInstallHoldMicros int64 `json:"lastInstallHoldMicros"`
}

// AdaptivityStats returns the system's adaptivity telemetry. Lock-free.
func (s *System) AdaptivityStats() AdaptivityStats {
	installs, hold := s.eng.Installs()
	return AdaptivityStats{
		PushObserved:          s.obsPush.Load(),
		PullObserved:          s.obsPull.Load(),
		Rebalances:            s.rebalances.Load(),
		Flips:                 s.flips.Load(),
		LastRebalanceNano:     s.lastRebalanceNano.Load(),
		Installs:              installs,
		LastInstallHoldMicros: hold.Microseconds(),
	}
}

// Rebalance drains the engine's observed push/pull counts into the adaptor
// judging its installed Topology and, when the adaptor flipped frontier
// decisions (§4.8), installs the Topology it returns, building no live
// overlay; the next maintained repair starts from the installed decisions
// (afterMaintenance). It returns the number of flips. The
// adaptor's window closes only on a pass that flipped a node (see
// dataflow.Adaptor.Rebalance), so a drift too thin to fill a window in one
// pass is answered once it has filled across passes.
//
// A fixed-mode system keeps the telemetry and builds no adaptor: its
// decisions are its mode, all-push for every Continuous query, whose
// subscribers are covered only while their readers stay push.
//
// Reads never pause; writes wait for the install step only
// (exec.Engine.Rebuild — AdaptivityStats reports how long). Rebalance
// serializes only with other structural operations (mutations, Reoptimize).
func (s *System) Rebalance() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pushes, pulls := s.eng.Observations()
	var p, l float64
	for i := range pushes {
		p, l = p+pushes[i], l+pulls[i]
	}
	s.obsPush.Add(int64(p))
	s.obsPull.Add(int64(l))
	s.rebalances.Add(1)
	s.lastRebalanceNano.Store(time.Now().UnixNano())
	if s.opts.Mode != ModeDataflow {
		return 0, nil
	}
	a := s.adaptorLocked()
	a.ObserveBatch(pushes, pulls)
	top, flips := a.Rebalance()
	s.flips.Add(int64(flips))
	if flips == 0 {
		return 0, nil
	}
	s.adaptor = nil // spent
	return flips, s.eng.Rebuild(top, nil)
}

// adaptorLocked returns the adaptor judging the engine's installed
// Topology, building it when the system has none or its adaptor judges an
// earlier one: every install — a flip, a repair, a re-optimization, a
// recompile — restarts the observation window. Callers hold s.mu.
func (s *System) adaptorLocked() *dataflow.Adaptor {
	if top := s.eng.Topology(); s.adaptor == nil || s.adapting != top {
		s.adaptor, s.adapting = dataflow.NewAdaptor(top, s.cost), top
	}
	return s.adaptor
}
