package experiments

import (
	"sort"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/graph"
)

// runStats summarizes one replay of an event stream against an engine.
type runStats struct {
	Throughput float64 // operations per second
	// Read latency distribution over the sampled reads (playSerial only).
	AvgLatency, P95Latency, WorstLatency time.Duration
}

// playSerial replays events on the calling goroutine (the single-threaded
// execution model of §2.2.2), timing every latencySample-th read (0: none).
func playSerial(eng *exec.Engine, events []graph.Event, latencySample int) runStats {
	var lats []time.Duration
	var res agg.Result // reused result buffer: serial reads don't allocate
	reads := 0
	start := time.Now()
	for _, ev := range events {
		if ev.Kind != graph.Read {
			_ = eng.Write(ev.Node, ev.Value, ev.TS)
			continue
		}
		reads++
		if latencySample == 0 || reads%latencySample != 0 {
			_ = eng.ReadInto(ev.Node, &res)
			continue
		}
		t0 := time.Now()
		_ = eng.ReadInto(ev.Node, &res)
		lats = append(lats, time.Since(t0))
	}
	st := runStats{Throughput: float64(len(events)) / time.Since(start).Seconds()}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		st.AvgLatency = sum / time.Duration(len(lats))
		st.P95Latency = lats[len(lats)*95/100]
		st.WorstLatency = lats[len(lats)-1]
	}
	return st
}

// playConcurrent replays events the way a multi-core host drives the engine:
// writers goroutines each calling Apply (64 events a call) and readers
// goroutines each calling ReadInto. Writes are dealt out by data-graph node,
// so one writer's updates stay in stream order; reads round-robin. Dealing
// happens before the clock starts.
func playConcurrent(eng *exec.Engine, events []graph.Event, writers, readers int) runStats {
	writes := make([][]graph.Event, writers)
	reads := make([][]graph.Event, readers)
	nReads := 0
	for _, ev := range events {
		if ev.Kind == graph.Read {
			reads[nReads%readers] = append(reads[nReads%readers], ev)
			nReads++
		} else {
			w := uint64(ev.Node) % uint64(writers)
			writes[w] = append(writes[w], ev)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, share := range writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(share) > 0 {
				n := min(64, len(share))
				eng.Apply(share[:n], graph.NoAdvance)
				share = share[n:]
			}
		}()
	}
	for _, share := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res agg.Result
			for _, ev := range share {
				_ = eng.ReadInto(ev.Node, &res)
			}
		}()
	}
	wg.Wait()
	return runStats{Throughput: float64(len(events)) / time.Since(start).Seconds()}
}
