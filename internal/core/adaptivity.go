package core

import (
	"time"

	"repro/internal/overlay"
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

// drainObservationsLocked moves the engine's observation window into the
// adaptor and the cumulative telemetry. Callers hold s.mu.
//
// A fixed-mode system (all-push or all-pull) keeps the telemetry and feeds
// the adaptor nothing, which is what keeps the §4.8 scheme off it: an
// adaptor without observations judges and flips no node. Its
// decisions are its mode, which decide would restore on the next recompile
// and Stats reports. All-push is every Continuous query, whose subscribers
// are covered only while their readers stay push.
func (s *System) drainObservationsLocked() (pushes, pulls map[overlay.NodeRef]float64) {
	pushes, pulls = s.eng.Observations()
	var p, l float64
	for _, c := range pushes {
		p += c
	}
	for _, c := range pulls {
		l += c
	}
	s.obsPush.Add(int64(p))
	s.obsPull.Add(int64(l))
	if s.opts.Mode == ModeDataflow {
		s.thawLocked()
		s.adaptor.ObserveBatch(pushes, pulls)
	}
	return pushes, pulls
}

// Rebalance feeds the engine's observed push/pull counts to the adaptive
// scheme and applies any frontier decision flips (§4.8), installing the new
// decisions in the engine when flips occurred. It returns the number of
// flips. The adaptor's window closes only on a pass that flipped a node
// (see dataflow.Adaptor.Rebalance), so a drift too thin to fill a window in
// one pass is answered once it has filled across passes.
//
// Write and read traffic may keep flowing while Rebalance runs: reads
// never pause; writes wait for the install step only (exec.Engine.Rebuild
// seeds push state from the windows under its gate — AdaptivityStats reports
// how long). Rebalance serializes only with other structural operations
// (mutations, Reoptimize). A fixed-mode system has nothing to judge and
// builds no adaptor for it.
func (s *System) Rebalance() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainObservationsLocked()
	flips := 0
	if s.opts.Mode == ModeDataflow {
		flips = s.adaptor.Rebalance()
	}
	s.rebalances.Add(1)
	s.flips.Add(int64(flips))
	s.lastRebalanceNano.Store(time.Now().UnixNano())
	if flips > 0 {
		return flips, s.eng.Rebuild(s.ov, nil)
	}
	return flips, nil
}
