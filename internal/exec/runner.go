package exec

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/graph"
)

// Runner drives an engine with separate read and write thread pools
// (§2.2.2). Writes use the queueing model — a write is enqueued and its
// propagation runs on a writer-pool goroutine — while reads use the
// uni-thread model: the read executes fully on one reader-pool goroutine.
// The relative pool sizes trade read latency against staleness, as in the
// paper.
//
// The write pool is sharded: each worker owns a private queue and events
// are routed by data-graph node id (writer slots are 1:1 with nodes), so a
// given writer's updates are applied in submission order — the paper's
// per-node micro-task queues — while distinct writers ingest in parallel
// without contending on a shared channel.
type Runner struct {
	eng *Engine

	WriteWorkers int
	ReadWorkers  int
	// LatencySample records every Nth read latency (0 disables).
	LatencySample int

	writeChs []chan graph.Event
	readCh   chan graph.Event
	wg       sync.WaitGroup

	latMu     sync.Mutex
	latencies []time.Duration
	readCount atomic.Int64
	errCount  atomic.Int64
}

// NewRunner wraps an engine with pools of the given sizes (minimum 1 each).
// Configure WriteWorkers/ReadWorkers/LatencySample before Start; they must
// not change while the pools run.
func NewRunner(eng *Engine, writeWorkers, readWorkers int) *Runner {
	if writeWorkers < 1 {
		writeWorkers = 1
	}
	if readWorkers < 1 {
		readWorkers = 1
	}
	return &Runner{
		eng:           eng,
		WriteWorkers:  writeWorkers,
		ReadWorkers:   readWorkers,
		LatencySample: 16,
	}
}

// Start launches the worker pools. Call it once per run, before any
// Submit; a Runner is not restartable after Stop (create a new one).
func (r *Runner) Start() {
	r.writeChs = make([]chan graph.Event, r.WriteWorkers)
	r.readCh = make(chan graph.Event, 4096)
	for i := range r.writeChs {
		r.writeChs[i] = make(chan graph.Event, 1024)
	}
	for i := 0; i < r.WriteWorkers; i++ {
		r.wg.Add(1)
		go func(ch <-chan graph.Event) {
			defer r.wg.Done()
			for ev := range ch {
				if err := r.eng.Write(ev.Node, ev.Value, ev.TS); err != nil {
					r.errCount.Add(1)
				}
			}
		}(r.writeChs[i])
	}
	for i := 0; i < r.ReadWorkers; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			// res is reused across this worker's reads (ReadInto), so
			// list-valued aggregates don't allocate per read.
			var res agg.Result
			for ev := range r.readCh {
				n := r.readCount.Add(1)
				sample := r.LatencySample > 0 && n%int64(r.LatencySample) == 0
				var start time.Time
				if sample {
					start = time.Now()
				}
				if err := r.eng.ReadInto(ev.Node, &res); err != nil {
					r.errCount.Add(1)
				}
				if sample {
					d := time.Since(start)
					r.latMu.Lock()
					r.latencies = append(r.latencies, d)
					r.latMu.Unlock()
				}
			}
		}()
	}
}

// Submit routes an event to the appropriate pool, blocking when the queue
// is full (back-pressure). Writes are routed to the worker owning the
// event's node so per-writer ordering is preserved. Submit may be
// called from multiple goroutines between Start and Stop, but per-writer
// ordering is only meaningful per submitting goroutine.
func (r *Runner) Submit(ev graph.Event) {
	if ev.Kind == graph.Read {
		r.readCh <- ev
	} else {
		r.writeChs[uint64(ev.Node)%uint64(len(r.writeChs))] <- ev
	}
}

// Stop drains the queues and stops the workers. No Submit may race with or
// follow Stop; it returns once every queued event has been executed.
func (r *Runner) Stop() {
	for _, ch := range r.writeChs {
		close(ch)
	}
	close(r.readCh)
	r.wg.Wait()
}

// Stats summarizes a run.
type Stats struct {
	Duration   time.Duration
	Writes     int64
	Reads      int64
	Errors     int64
	Throughput float64 // operations per second
	// Read latency distribution from the sampled reads.
	AvgLatency   time.Duration
	P95Latency   time.Duration
	WorstLatency time.Duration
}

// Play executes a stream of events through the pools and returns run
// statistics. The engine's counters are deltas within this call. Play owns
// the Runner for its duration (Start/Submit/Stop must not be mixed in);
// the engine itself may serve other traffic concurrently.
func (r *Runner) Play(events []graph.Event) Stats {
	w0, r0 := r.eng.Counts()
	r.Start()
	start := time.Now()
	for _, ev := range events {
		r.Submit(ev)
	}
	r.Stop()
	dur := time.Since(start)
	w1, r1 := r.eng.Counts()
	st := Stats{
		Duration: dur,
		Writes:   w1 - w0,
		Reads:    r1 - r0,
		Errors:   r.errCount.Load(),
	}
	if dur > 0 {
		st.Throughput = float64(st.Writes+st.Reads) / dur.Seconds()
	}
	r.latMu.Lock()
	lats := append([]time.Duration(nil), r.latencies...)
	r.latencies = r.latencies[:0]
	r.latMu.Unlock()
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

// PlaySerial executes events on the calling goroutine (the single-threaded
// execution model of §2.2.2), returning the same statistics.
func PlaySerial(eng *Engine, events []graph.Event, latencySample int) Stats {
	w0, r0 := eng.Counts()
	var lats []time.Duration
	var res agg.Result // reused result buffer: serial reads don't allocate
	start := time.Now()
	n := 0
	for _, ev := range events {
		if ev.Kind == graph.Read {
			n++
			sample := latencySample > 0 && n%latencySample == 0
			var t0 time.Time
			if sample {
				t0 = time.Now()
			}
			_ = eng.ReadInto(ev.Node, &res)
			if sample {
				lats = append(lats, time.Since(t0))
			}
		} else {
			_ = eng.Write(ev.Node, ev.Value, ev.TS)
		}
	}
	dur := time.Since(start)
	w1, r1 := eng.Counts()
	st := Stats{
		Duration: dur,
		Writes:   w1 - w0,
		Reads:    r1 - r0,
	}
	if dur > 0 {
		st.Throughput = float64(st.Writes+st.Reads) / dur.Seconds()
	}
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
