// Package autotune closes the paper's adaptivity loop (§6; ROADMAP item 1):
// a background controller samples the engines' live push/pull observation
// counters into a decayed estimate of the workload actually being served,
// detects drift, and re-optimizes the running systems online — reads never
// pause; writes wait for the engine's install step only.
//
// Reads are sampled per reader (a merged family's views at one data-graph
// node keep their own read rates), so a cold member view costs what its own
// readers cost and the cost model alone decides whether it stays push. Two
// signals, two escalating responses:
//
//   - Frontier-flip pressure (Adaptor.Pressure): observation windows that
//     contradict a frontier node's decision. Response: ApplyFlips — the
//     incremental §4.8 rebalance plus an engine install of the flipped
//     decisions.
//   - Plan degradation: the §4.3 cost of the CURRENT decisions under the
//     observed workload vs a fresh dataflow plan for that workload
//     (EstimateCosts). When the ratio crosses DegradationRatio, the
//     response is a full Reoptimize cutover — rate-limited
//     by Cooldown, and self-quenching because the ratio collapses to ~1
//     right after a cutover.
//
// Every action ends in one exec.Engine.Rebuild on the overlay it changed:
// reads keep flowing through every flip and re-plan, and writes
// wait for its install step only. When the controller is off,
// nothing here runs — the engine's observation counters are always-on
// either way, so the hot write path is identical with and without it.
package autotune

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// Config tunes the controller. The zero value of any field selects its
// default; DefaultConfig spells them out.
type Config struct {
	// Interval is the controller's sampling period (default 2s).
	Interval time.Duration
	// Decay is the per-tick retention of the workload estimate: each tick
	// the previous estimate is multiplied by Decay before the fresh window
	// is added (exponential sliding window; default 0.5). Must be in [0,1).
	Decay float64
	// MinActivity gates the degradation check on a system: no
	// reoptimization until the decayed estimate holds at least this much
	// observed activity (default 256 observations).
	MinActivity float64
	// DegradationRatio triggers a full Reoptimize when the observed-workload
	// cost of the current decisions exceeds this multiple of a fresh plan's
	// cost (default 1.15).
	DegradationRatio float64
	// Cooldown is the minimum time between Reoptimize cutovers on one
	// system (default 30s). Negative means no cooldown.
	Cooldown time.Duration
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig() Config {
	return Config{
		Interval:         2 * time.Second,
		Decay:            0.5,
		MinActivity:      256,
		DegradationRatio: 1.15,
		Cooldown:         30 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = d.Decay
	}
	if c.MinActivity <= 0 {
		c.MinActivity = d.MinActivity
	}
	if c.DegradationRatio <= 1 {
		c.DegradationRatio = d.DegradationRatio
	}
	if c.Cooldown == 0 {
		c.Cooldown = d.Cooldown
	}
	return c
}

// Stats is a snapshot of the controller's counters.
type Stats struct {
	// Enabled reports whether the background loop is live.
	Enabled bool `json:"enabled"`
	// Ticks counts completed controller passes (background or TickNow).
	Ticks int64 `json:"ticks"`
	// Flips counts frontier decision flips the controller applied;
	// Reoptimizes counts full re-plan cutovers.
	Flips       int64 `json:"flips"`
	Reoptimizes int64 `json:"reoptimizes"`
	// LastTrigger describes the most recent action taken ("" if none yet).
	LastTrigger string `json:"lastTrigger"`
	// EstimatedCost and PlanCost are the most recent degradation check: the
	// §4.3 cost of the current decisions under the observed workload, and
	// of a fresh plan for it. Zero until the first check runs.
	EstimatedCost float64 `json:"estimatedCost"`
	PlanCost      float64 `json:"planCost"`
}

// Controller is the background adaptivity loop over one MultiSystem. Create
// with New, start the loop with Start, stop it with Stop; TickNow runs one
// synchronous pass (what the loop does on each interval), which is how
// tests and benchmarks drive it deterministically.
type Controller struct {
	cfg Config
	m   *core.MultiSystem
	now func() time.Time // test seam for the Cooldown clock

	ticks, flips, reoptimizes atomic.Int64

	mu          sync.Mutex // guards state, lastTrigger, costs, lifecycle
	state       map[*core.System]*sysState
	lastTrigger string
	lastCost    float64
	lastPlan    float64
	running     bool
	stop        chan struct{}
	done        chan struct{}
}

// sysState is the controller's decayed per-system workload estimate.
type sysState struct {
	write    map[graph.NodeID]float64     // writer node -> decayed write rate
	read     map[overlay.ReaderID]float64 // reader -> decayed read rate
	activity float64                      // decayed total observation count
	lastOpt  time.Time                    // last Reoptimize cutover
}

// New builds a controller over m. The configuration is fixed for the
// controller's lifetime; zero Config fields take their defaults.
func New(m *core.MultiSystem, cfg Config) *Controller {
	return &Controller{
		cfg:   cfg.withDefaults(),
		m:     m,
		now:   time.Now,
		state: map[*core.System]*sysState{},
	}
}

// Start launches the background loop. Idempotent while running.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return
	}
	c.running = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.run(c.stop, c.done)
}

// Stop halts the background loop and waits for the in-flight pass, if any,
// to finish. Idempotent; the controller can be started again afterwards.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

func (c *Controller) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.TickNow()
		}
	}
}

// TickNow runs one controller pass synchronously: sample every system's
// observation window, fold it into the decayed estimates, and act on
// whatever the two drift signals justify. Safe to call concurrently with
// the background loop and with ingestion.
func (c *Controller) TickNow() {
	c.ticks.Add(1)
	now := c.now()
	systems := c.m.Systems()
	c.gcState(systems)
	for _, sys := range systems {
		c.tickSystem(sys, now)
	}
}

// gcState drops estimates for systems that have been detached.
func (c *Controller) gcState(systems []*core.System) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.state) <= len(systems) {
		return
	}
	live := make(map[*core.System]bool, len(systems))
	for _, sys := range systems {
		live[sys] = true
	}
	for sys := range c.state {
		if !live[sys] {
			delete(c.state, sys)
		}
	}
}

func (c *Controller) stateFor(sys *core.System) *sysState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[sys]
	if !ok {
		st = &sysState{
			write: map[graph.NodeID]float64{},
			read:  map[overlay.ReaderID]float64{},
		}
		c.state[sys] = st
	}
	return st
}

func (c *Controller) tickSystem(sys *core.System, now time.Time) {
	st := c.stateFor(sys)
	smp := sys.SampleObservations()
	fold(st, smp, c.cfg.Decay)

	// Signal 1: frontier-flip pressure — the cheap incremental response,
	// applied whenever the adaptor has a full contradicting window. The
	// MinSamples window is the rate limit; pressure 0 skips the install.
	if smp.Pressure > 0 {
		if n, err := sys.ApplyFlips(); err == nil && n > 0 {
			c.flips.Add(int64(n))
			c.setTrigger(fmt.Sprintf("rebalance: %d frontier flip(s)", n))
		}
	}

	if st.activity < c.cfg.MinActivity {
		return
	}
	c.maybeReoptimize(sys, st, now)
}

// fold decays the estimate and adds the fresh window.
func fold(st *sysState, smp core.Sample, decay float64) {
	decayMap(st.write, decay)
	decayMap(st.read, decay)
	st.activity *= decay
	for v, ct := range smp.WriterWrites {
		st.write[v] += ct
	}
	for v, ct := range smp.ReaderReads {
		st.read[v] += ct
	}
	st.activity += smp.Activity
}

func decayMap[K comparable](m map[K]float64, decay float64) {
	for k, v := range m {
		v *= decay
		if v < 1e-6 {
			delete(m, k)
			continue
		}
		m[k] = v
	}
}

// maybeReoptimize runs the degradation check and, when the current plan's
// cost under the observed workload exceeds DegradationRatio times a fresh
// plan's, cuts over to the fresh plan via Reoptimize.
func (c *Controller) maybeReoptimize(sys *core.System, st *sysState, now time.Time) {
	if c.cfg.Cooldown > 0 && !st.lastOpt.IsZero() && now.Sub(st.lastOpt) < c.cfg.Cooldown {
		return
	}
	wl := c.estimatedWorkload(st)
	cur, fresh, err := sys.EstimateCosts(wl)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.lastCost, c.lastPlan = cur, fresh
	c.mu.Unlock()
	if fresh <= 0 || cur <= c.cfg.DegradationRatio*fresh {
		return
	}
	if err := sys.Reoptimize(wl); err != nil {
		return
	}
	st.lastOpt = now
	c.reoptimizes.Add(1)
	c.setTrigger(fmt.Sprintf("reoptimize: observed cost %.1f > %.2f× fresh plan %.1f", cur, c.cfg.DegradationRatio, fresh))
}

// estimatedWorkload materializes the decayed estimate as a
// dataflow.Workload over the current id space, reads keyed by reader.
// Nodes and readers never observed carry frequency 0 — under the observed
// workload they genuinely are idle.
func (c *Controller) estimatedWorkload(st *sysState) *dataflow.Workload {
	wl := dataflow.NewWorkload(c.m.Graph().MaxID())
	for v, f := range st.write {
		if int(v) < len(wl.Write) {
			wl.Write[v] = f
		}
	}
	// A copy: Reoptimize keeps the workload for later recompiles while the
	// next tick folds into st.read.
	wl.ReaderReads = maps.Clone(st.read)
	return wl
}

func (c *Controller) setTrigger(reason string) {
	c.mu.Lock()
	c.lastTrigger = reason
	c.mu.Unlock()
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Enabled:       c.running,
		Ticks:         c.ticks.Load(),
		Flips:         c.flips.Load(),
		Reoptimizes:   c.reoptimizes.Load(),
		LastTrigger:   c.lastTrigger,
		EstimatedCost: c.lastCost,
		PlanCost:      c.lastPlan,
	}
}
