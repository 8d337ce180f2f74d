package core

import (
	"time"

	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// This file is the adaptivity surface a background controller (package
// autotune) drives: draining the engine's live push/pull observations into
// graph-level workload samples, applying pending frontier flips, and
// costing the current decisions against a fresh plan for the observed
// workload. Everything here is also usable on demand (Rebalance, the
// /rebalance endpoint) — the controller merely calls it on a clock.

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

// Sample is one drained window of engine observations translated into
// graph-level terms: per-writer-node write counts, per-reader read counts
// (merged views at one node keep their own counts), and the adaptor's
// current frontier-flip pressure.
type Sample struct {
	WriterWrites map[graph.NodeID]float64
	ReaderReads  map[overlay.ReaderID]float64
	// Pressure is the number of frontier nodes whose filled observation
	// window contradicts their decision — what ApplyFlips would flip now.
	Pressure int
	// Activity is the total drained observation count (pushes + pulls,
	// including interior overlay nodes).
	Activity float64
}

// SampleObservations drains the engine's push/pull counters, feeds them to
// the adaptive scheme (so a later ApplyFlips sees them), and returns the
// window translated into graph terms for workload estimation. It shares the
// cumulative telemetry with Rebalance; the two may be freely interleaved.
func (s *System) SampleObservations() Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	pushes, pulls := s.drainObservationsLocked()
	smp := Sample{
		WriterWrites: make(map[graph.NodeID]float64),
		ReaderReads:  make(map[overlay.ReaderID]float64),
	}
	for ref, c := range pushes {
		smp.Activity += c
		if int(ref) >= s.ov.Len() || !s.ov.Alive(ref) {
			continue
		}
		if n := s.ov.Node(ref); n.Kind == overlay.WriterNode {
			smp.WriterWrites[n.GID] += c
		}
	}
	for ref, c := range pulls {
		smp.Activity += c
		if int(ref) >= s.ov.Len() || !s.ov.Alive(ref) {
			continue
		}
		// Every read bumps its reader's pull counter exactly once whether
		// the reader is push- or pull-annotated (interior pulls land on
		// partials/writers, skipped here), so reader pulls ARE read rates.
		if n := s.ov.Node(ref); n.Kind == overlay.ReaderNode {
			smp.ReaderReads[overlay.ReaderID{Tag: n.Tag, Node: n.GID}] += c
		}
	}
	smp.Pressure = s.adaptor.Pressure()
	return smp
}

// drainObservationsLocked moves the engine's observation window into the
// adaptor and the cumulative telemetry. Callers hold s.mu.
//
// A system compiled all-push keeps the telemetry and feeds the adaptor
// nothing, which is what keeps the §4.8 scheme off it: an adaptor without
// observations has no pressure and flips no node. All-push is every
// Continuous query, whose subscribers are covered only while their readers
// stay push, and the only way a frontier flip can move an all-push plan is
// toward pull.
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
	if s.opts.Mode != ModeAllPush {
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

// EstimateCosts evaluates the §4.3 objective for workload wl under the
// system's CURRENT decisions, and under a fresh plan the system's own
// decision procedure makes for that workload on a clone of the overlay (the
// live overlay and its decisions are untouched; a fixed-mode system's fresh
// plan is its current one). The ratio current/fresh is the degradation
// signal the background controller uses to decide when a full Reoptimize
// cutover pays for itself.
func (s *System) EstimateCosts(wl *dataflow.Workload) (current, fresh float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	clone := s.ov.Clone()
	f, err := s.decide(clone, wl)
	if err != nil {
		return 0, 0, err
	}
	return dataflow.TotalCost(s.ov, f, s.cost), dataflow.TotalCost(clone, f, s.cost), nil
}
