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
// chunk's engine install runs CONCURRENTLY with the chunk's ingest and reads
// (a serial replay on its own goroutine), and the table compares per-chunk
// throughput against an identical engine that never rebalances. Reads never
// pause and writes wait for the install step only — the resync-ms column is
// how long that step held them — so the adaptive column tracks the static
// one within noise while still applying decision flips.
//
// The flips are decided by a serial twin of the adaptive engine: before each
// chunk it drains the previous chunk's counts, rebalances and installs, then
// replays the chunk. An engine folds each op's counts through whichever plan
// is installed when the op runs, so the measured engine's own counts depend
// on where its install landed in the replay; the twin's depend on the trace
// alone, and the flips column repeats from run to run.
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
	mk := func() *exec.Engine {
		e, err := exec.New(decideApproach(base, "dataflow", tr.Before, m, 1), a, agg.NewTupleWindow(1))
		if err != nil {
			panic(err)
		}
		return e
	}
	static, adaptive, twin := mk(), mk(), mk()
	var adaptor *dataflow.Adaptor // the twin's, over its installed Topology
	t := Table{
		Title: fmt.Sprintf("Adaptivity: per-chunk throughput (ops/s) with a concurrent engine install each chunk; read popularity shifts at chunk %d — %s, TOP-K",
			nChunks/2+1, d.Name),
		Header: []string{"chunk", "static-ops/s", "adaptive-ops/s", "flips", "resync-ms"},
		Notes:  "expected: adaptive throughput stays within noise of static; resync-ms is how long the chunk's install held writes back (reads are never held); flips are decided on the previous chunk's counts by a serial twin, so they repeat from run to run and concentrate right after the shift",
	}
	playChunk := func(e *exec.Engine, events []graph.Event) float64 {
		return playSerial(e, events, 0).Throughput
	}
	for c := 0; c < nChunks; c++ {
		slice := tr.Events[c*chunk : (c+1)*chunk]
		stOps := playChunk(static, slice)
		flips := 0
		var next *overlay.Topology
		if c > 0 {
			if adaptor == nil {
				adaptor = dataflow.NewAdaptor(twin.Topology(), m)
			}
			adaptor.ObserveBatch(twin.Observations())
			if next, flips = adaptor.Rebalance(); flips > 0 {
				if err := twin.Rebuild(next, nil); err != nil {
					panic(err)
				}
				adaptor = nil
			}
		}
		playChunk(twin, slice)
		// The measured engine installs the twin's Topology while this
		// chunk's traffic flows on another goroutine.
		var hold time.Duration
		var wg sync.WaitGroup
		var adOps float64
		wg.Add(1)
		go func() {
			defer wg.Done()
			adOps = playChunk(adaptive, slice)
		}()
		if flips > 0 {
			if err := adaptive.Rebuild(next, nil); err != nil {
				panic(err)
			}
			_, hold = adaptive.Installs()
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
