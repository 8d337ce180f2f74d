package core

import (
	"time"

	"repro/internal/overlay"
)

// This file is the adaptivity surface a background controller (package
// autotune) drives: draining the engine's live push/pull observations into
// the §4.8 adaptor and applying the frontier flips pending there.
// Everything here is also usable on demand (Rebalance, the /rebalance
// endpoint) — the controller merely calls it on a clock.

// AdaptivityStats is the externally visible adaptivity state of one system:
// monotonic totals of the push/pull observations drained from the engine
// and the outcome of the most recent rebalance, available whether or not a
// background controller is running.
type AdaptivityStats struct {
	// PushObserved/PullObserved are the total observation counts drained
	// from the engine's per-node counters since the system started.
	PushObserved int64 `json:"pushObserved"`
	PullObserved int64 `json:"pullObserved"`
	// Rebalances counts Rebalance/ApplyFlips passes; LastFlips is the flip
	// count of the most recent pass and LastRebalanceNano its wall-clock
	// time (UnixNano; 0 if no pass has run).
	Rebalances        int64 `json:"rebalances"`
	LastFlips         int   `json:"lastFlips"`
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
		LastFlips:             int(s.lastFlips.Load()),
		LastRebalanceNano:     s.lastRebalanceNano.Load(),
		Installs:              installs,
		LastInstallHoldMicros: hold.Microseconds(),
	}
}

// SampleObservations drains the engine's push/pull counters, feeds them to
// the adaptive scheme (so a later ApplyFlips sees them), and returns the
// adaptor's frontier-flip pressure: the number of frontier nodes whose
// filled observation window contradicts their decision — what ApplyFlips
// would flip now. It shares the cumulative telemetry with Rebalance; the
// two may be freely interleaved.
func (s *System) SampleObservations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainObservationsLocked()
	return s.adaptor.Pressure()
}

// drainObservationsLocked moves the engine's observation window into the
// adaptor and the cumulative telemetry. Callers hold s.mu.
//
// A fixed-mode system (all-push or all-pull) keeps the telemetry and feeds
// the adaptor nothing, which is what keeps the §4.8 scheme off it: an
// adaptor without observations has no pressure and flips no node. Its
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
		s.adaptor.ObserveBatch(pushes, pulls)
	}
	return pushes, pulls
}

// Rebalance feeds the engine's observed push/pull counts to the adaptive
// scheme and applies any frontier decision flips (§4.8), installing the new
// decisions in the engine when flips occurred. It returns the number of
// flips.
//
// Write and read traffic may keep flowing while Rebalance runs: reads
// never pause; writes wait for the install step only (exec.Engine.Rebuild
// seeds push state from the windows under its gate — AdaptivityStats reports
// how long). Rebalance serializes only with other structural operations
// (mutations, Reoptimize).
func (s *System) Rebalance() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainObservationsLocked()
	return s.applyRebalanceLocked()
}

// ApplyFlips applies the frontier decision flips pending from observations
// already fed to the adaptive scheme (via SampleObservations or Rebalance),
// installing the new decisions in the engine when any occurred. Unlike
// Rebalance it does not drain a fresh observation window first.
func (s *System) ApplyFlips() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyRebalanceLocked()
}

// applyRebalanceLocked runs the adaptor's rebalance pass, records the
// telemetry, and installs the new decisions in the engine when any flipped.
// Callers hold s.mu.
func (s *System) applyRebalanceLocked() (int, error) {
	flips := s.adaptor.Rebalance()
	s.rebalances.Add(1)
	s.lastFlips.Store(int64(flips))
	s.lastRebalanceNano.Store(time.Now().UnixNano())
	if flips > 0 {
		if err := s.eng.Rebuild(s.ov, s.q.Window, nil); err != nil {
			return flips, err
		}
	}
	return flips, nil
}
