// Package autotune closes the paper's adaptivity loop (§4.8, §6): a
// background controller drains the engines' live push/pull observation
// counters into each system's §4.8 adaptor on a clock and applies the
// frontier flips they justify — reads never pause; writes wait for the
// engine's install step only. A fixed-mode (all-push or all-pull) system's
// adaptor is fed nothing (core.System keeps that guard), so it never flips.
//
// The one signal is frontier-flip pressure (Adaptor.Pressure): frontier
// nodes whose filled observation window (MinSamples) contradicts their
// decision. The response is ApplyFlips — the incremental §4.8 rebalance
// plus one exec.Engine.Rebuild of the flipped decisions. Reads are observed
// per reader (a merged family's views at one data-graph node keep their own
// counters), so a cold member view costs what its own readers cost and the
// cost model alone decides whether it stays push. A drift too thin to fill a
// window in one interval is answered once the window has filled across
// ticks. When the controller is off, nothing here runs — the engine's
// observation counters are always-on either way, so the hot write path is
// identical with and without it.
package autotune

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config tunes the controller. The zero value of any field selects its
// default; DefaultConfig spells them out.
type Config struct {
	// Interval is the controller's sampling period (default 2s).
	Interval time.Duration
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig() Config {
	return Config{Interval: 2 * time.Second}
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultConfig().Interval
	}
	return c
}

// Stats is a snapshot of the controller's counters.
type Stats struct {
	// Enabled reports whether the background loop is live.
	Enabled bool `json:"enabled"`
	// Ticks counts completed controller passes (background or TickNow).
	Ticks int64 `json:"ticks"`
	// Flips counts frontier decision flips the controller applied.
	Flips int64 `json:"flips"`
	// LastTrigger describes the most recent action taken ("" if none yet).
	LastTrigger string `json:"lastTrigger"`
}

// Controller is the background adaptivity loop over one MultiSystem. Create
// with New, start the loop with Start, stop it with Stop; TickNow runs one
// synchronous pass (what the loop does on each interval), which is how
// tests and benchmarks drive it deterministically.
type Controller struct {
	cfg Config
	m   *core.MultiSystem

	ticks, flips atomic.Int64

	mu          sync.Mutex // guards lastTrigger and the lifecycle
	lastTrigger string
	running     bool
	stop        chan struct{}
	done        chan struct{}
}

// New builds a controller over m. The configuration is fixed for the
// controller's lifetime; zero Config fields take their defaults.
func New(m *core.MultiSystem, cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), m: m}
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

// TickNow runs one controller pass synchronously: drain every system's
// observation window into its adaptor and apply the frontier flips pending
// there. Safe to call concurrently with the background loop and with
// ingestion.
func (c *Controller) TickNow() {
	c.ticks.Add(1)
	for _, sys := range c.m.Systems() {
		// The MinSamples window is the rate limit; pressure 0 skips the
		// install.
		if sys.SampleObservations() == 0 {
			continue
		}
		if n, err := sys.ApplyFlips(); err == nil && n > 0 {
			c.flips.Add(int64(n))
			c.setTrigger(fmt.Sprintf("rebalance: %d frontier flip(s)", n))
		}
	}
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
		Enabled:     c.running,
		Ticks:       c.ticks.Load(),
		Flips:       c.flips.Load(),
		LastTrigger: c.lastTrigger,
	}
}
