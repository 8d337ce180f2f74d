package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// adaptivity measures the system property §6 of the paper demands: adaptive
// re-optimization must not hiccup sustained traffic. A read-popularity shift
// mid-trace (as in Fig 13a) forces the adaptor to flip decisions; here every
// chunk's rebalance + engine install runs CONCURRENTLY with the next chunk's
// ingest and reads (a serial replay on its own goroutine), and the table
// compares per-chunk throughput against an identical engine that never
// rebalances. Reads never pause and writes wait for the install step only —
// the resync-ms column is how long that step held them — so the adaptive
// column tracks the static one within noise while still applying decision
// flips.
func adaptivity(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := execGraph(cfg)
	ag := agOf(d)
	base := overlayFor(construct.AlgVNMA, ag, cfg.Iterations)
	const nChunks = 10
	chunk := cfg.Events / nChunks
	if chunk < 1000 {
		chunk = 1000
	}
	costOf := func(v graph.NodeID) float64 { return float64(d.Graph.InDegree(v)) }
	tr := workload.SyntheticTrace(d.Graph.MaxID(), chunk*nChunks, 0.25, 0.1, 0.8, cfg.Seed, costOf)
	a := agg.TopK{K: 3}
	m := dataflow.ModelFor(a)
	mk := func() (*exec.Engine, *overlay.Overlay) {
		ov := decideApproach(base, "dataflow", tr.Before, m, 1)
		e, err := exec.New(ov, a, agg.NewTupleWindow(1))
		if err != nil {
			panic(err)
		}
		return e, ov
	}
	static, _ := mk()
	adaptive, adaptiveOv := mk()
	adaptor := dataflow.NewAdaptor(adaptiveOv, m)
	t := Table{
		Title: fmt.Sprintf("Adaptivity: per-chunk throughput (ops/s) with a concurrent rebalance+install each chunk; read popularity shifts at chunk %d — %s, TOP-K",
			nChunks/2+1, d.Name),
		Header: []string{"chunk", "static-ops/s", "adaptive-ops/s", "flips", "resync-ms"},
		Notes:  "expected: adaptive throughput stays within noise of static; resync-ms is how long the chunk's install held writes back (reads are never held), and flips concentrate right after the shift",
	}
	playChunk := func(e *exec.Engine, events []graph.Event) float64 {
		return playSerial(e, events, 0).Throughput
	}
	for c := 0; c < nChunks; c++ {
		slice := tr.Events[c*chunk : (c+1)*chunk]
		stOps := playChunk(static, slice)
		// The adaptive engine rebalances concurrently with its ingest: the
		// previous chunk's observations drive flips + an engine install on
		// one goroutine while this chunk's traffic flows on another.
		flips := 0
		var hold time.Duration
		var wg sync.WaitGroup
		var adOps float64
		wg.Add(1)
		go func() {
			defer wg.Done()
			adOps = playChunk(adaptive, slice)
		}()
		if c > 0 {
			pushes, pulls := adaptive.Observations()
			adaptor.ObserveBatch(pushes, pulls)
			if flips = adaptor.Rebalance(); flips > 0 {
				if err := adaptive.Rebuild(adaptiveOv, nil, nil); err != nil {
					panic(err)
				}
				_, hold = adaptive.Installs()
			}
		}
		wg.Wait()
		t.Rows = append(t.Rows, []string{
			i0(c + 1), f0(stOps), f0(adOps), i0(flips),
			f2(float64(hold.Microseconds()) / 1000),
		})
	}
	return []Table{t}
}

func init() {
	register("adaptivity", "rebalance + engine install under sustained traffic (writes wait for the install step only)", adaptivity)
}
