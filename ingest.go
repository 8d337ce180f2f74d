package eagr

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Typed errors of the streaming ingestion surface.
var (
	// ErrBackpressure reports a Send/SendEvent rejected because the
	// Ingestor's bounded queue is full and the backpressure policy is
	// BackpressureError. The event was NOT accepted; retry after the
	// queue drains, or switch to BackpressureBlock.
	ErrBackpressure = errors.New("eagr: ingestor queue full")
	// ErrIngestorClosed reports an operation on a closed Ingestor.
	ErrIngestorClosed = errors.New("eagr: ingestor closed")
	// ErrTimestampJump reports an event rejected because its explicit
	// timestamp runs further ahead of the stream than the Ingestor's
	// MaxTimestampJump allows (see IngestOptions).
	ErrTimestampJump = errors.New("eagr: event timestamp too far ahead of the stream")
)

// Clock supplies timestamps for events ingested without one (Event.TS ==
// 0). Implementations must be safe for concurrent use.
type Clock interface {
	Now() int64
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() int64

// Now implements Clock.
func (f ClockFunc) Now() int64 { return f() }

// WallClock timestamps events with time.Now().UnixNano().
func WallClock() Clock { return ClockFunc(func() int64 { return time.Now().UnixNano() }) }

// LogicalClock returns a monotonically increasing counter clock starting
// at 1: each Now() is one tick later. Deterministic runs (tests, examples,
// replay) use it in place of wall time.
func LogicalClock() Clock {
	var c atomic.Int64
	return ClockFunc(func() int64 { return c.Add(1) })
}

// BackpressurePolicy selects what Send/SendEvent do when the Ingestor's
// bounded batch queue is full.
type BackpressurePolicy int

const (
	// BackpressureBlock (the default) blocks the sender until the queue
	// drains — ingestion applies backpressure upstream.
	BackpressureBlock BackpressurePolicy = iota
	// BackpressureError fails fast with ErrBackpressure instead of
	// blocking; the rejected event is not buffered.
	BackpressureError
)

// IngestOptions tune an Ingestor; the zero value picks sensible defaults.
type IngestOptions struct {
	// BatchSize is the number of buffered events that triggers an
	// automatic flush into the apply queue (default 256).
	BatchSize int
	// FlushInterval bounds how long a buffered event waits before a
	// background flush hands it to the apply queue even when the batch is
	// not full (default 50ms; negative disables interval flushing, so
	// only BatchSize and explicit Flush/Close hand batches over).
	FlushInterval time.Duration
	// QueueDepth bounds the number of flushed batches awaiting
	// application (default 8). A full queue invokes the Backpressure
	// policy.
	QueueDepth int
	// Backpressure selects blocking (default) or fail-fast sends when the
	// queue is full.
	Backpressure BackpressurePolicy
	// Clock stamps events sent without a timestamp; nil means WallClock
	// (unix nanoseconds).
	Clock Clock
	// Lateness is the out-of-order tolerance of the watermark: the
	// watermark trails the maximum applied timestamp by this much, so an
	// event up to Lateness behind the newest one is never expired before
	// it applies. Zero means timestamps are treated as in-order.
	Lateness int64
	// MaxTimestampJump, when positive, bounds how far an event's explicit
	// timestamp may run AHEAD of the largest timestamp accepted so far;
	// events further in the future are rejected with ErrTimestampJump
	// (the first event establishes the time domain and is never
	// rejected). The watermark only ratchets forward, so without a bound
	// one corrupt far-future timestamp expires every time-based window
	// permanently — set this on streams fed by untrusted sources. Zero
	// means unbounded.
	MaxTimestampJump int64
	// DisableAutoExpire turns off watermark-driven window expiry; the
	// caller owns ExpireAll again.
	DisableAutoExpire bool
	// ApplyWorkers sizes the pipelined apply pool: dequeued batches are
	// split into content runs partitioned across this many persistent
	// workers by data-graph node (per-node — and therefore per-writer —
	// order is preserved; writer slots are 1:1 with nodes in every
	// compiled overlay), with structural runs acting as barriers, so one
	// batch's apply overlaps the next batch's buffering AND the batch
	// after's apply. 0 means GOMAXPROCS; 1 forces the sequential single
	// worker. Durable sessions always use the sequential worker: the WAL
	// append and the apply must stay under one lock so checkpoints never
	// observe a half-applied batch (IngestorStats.ApplyWorkers reports the
	// count actually in effect).
	ApplyWorkers int
}

// withDefaults fills unset options.
func (o IngestOptions) withDefaults() IngestOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.Clock == nil {
		o.Clock = WallClock()
	}
	if o.Lateness < 0 {
		o.Lateness = 0
	}
	if o.ApplyWorkers <= 0 {
		o.ApplyWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Ingestor is a Session's streaming ingestion handle: a buffered,
// batching, backpressured front-end to ApplyBatch that also makes time
// first-class. Events accumulate into batches (flushed by size, by
// interval, or explicitly) and a background apply stage applies them in
// send order — content runs serially with coalesced notifications,
// structural runs through the coalesced repair path. With ApplyWorkers >
// 1 (the default on multi-core hosts, for non-durable sessions) the apply
// stage is PIPELINED: successive batches' content runs overlap across a
// node-partitioned worker pool while structural events fence — the one
// place in the system where content writes go parallel — so ingest is not
// bounded by one apply goroutine; per-node apply order, watermark
// monotonicity and Flush/Close barriers are identical to the sequential
// worker (see runPipelined).
//
// The Ingestor tracks a low watermark over applied timestamps: the maximum
// timestamp seen minus the configured Lateness. Every time the watermark
// advances, time-based windows are expired up to it automatically, so
// time-windowed and Continuous queries deliver expiry updates without any
// caller ExpireAll.
//
// All methods are safe for concurrent use. Events from one goroutine are
// applied in the order it sent them; ordering between goroutines follows
// their interleaving at Send.
type Ingestor struct {
	sess  *Session
	opts  IngestOptions
	clock Clock

	// mu guards buf, maxSent and closed; it is held across a blocking
	// enqueue so batches enter the queue in send order.
	mu     sync.Mutex
	buf    []Event
	closed bool
	// maxSent is the largest timestamp accepted so far (MinInt64 until
	// the first event), the reference point for MaxTimestampJump.
	maxSent int64

	queue    chan ingestJob
	done     chan struct{} // closed when the worker exits
	stopTick chan struct{}

	bufPool sync.Pool
	// chunkPool recycles the pipelined path's per-worker content
	// partitions (see runPipelined).
	chunkPool sync.Pool

	maxTS     atomic.Int64 // max applied timestamp; MinInt64 until one applies
	watermark atomic.Int64
	sent      atomic.Int64
	applied   atomic.Int64
	batches   atomic.Int64
	rejected  atomic.Int64
	depth     atomic.Int64
	// buffered mirrors len(buf) so Stats never takes ing.mu — a sender
	// blocked in a backpressured enqueue holds the mutex, and stats must
	// stay readable exactly then (that's when operators look).
	buffered atomic.Int64

	errMu   sync.Mutex
	pending []error
}

// ingestJob is one queued batch; done, when non-nil, receives the apply
// error (a Flush/Close synchronization point).
type ingestJob struct {
	events []Event
	done   chan error
}

// Ingest returns a streaming ingestion handle on the session. Close it to
// flush and release the background worker; a Session may host any number
// of concurrent Ingestors (their batches interleave at the queue).
func (s *Session) Ingest(opts IngestOptions) (*Ingestor, error) {
	o := opts.withDefaults()
	if s.dur != nil {
		// Durable sessions keep the sequential worker — their WAL append
		// and apply share one critical section (see Session.apply), which
		// an asynchronous apply would break. Stats reports the downgrade.
		o.ApplyWorkers = 1
	}
	ing := &Ingestor{
		sess:     s,
		opts:     o,
		clock:    o.Clock,
		queue:    make(chan ingestJob, o.QueueDepth),
		done:     make(chan struct{}),
		stopTick: make(chan struct{}),
	}
	ing.bufPool.New = func() any {
		s := make([]Event, 0, o.BatchSize)
		return &s
	}
	ing.buf = ing.getBuf()
	ing.maxSent = math.MinInt64
	ing.maxTS.Store(math.MinInt64)
	ing.watermark.Store(math.MinInt64)
	if d := s.dur; d != nil {
		// A durable session seeds the recovered time domain, so the
		// MaxTimestampJump reference survives restarts and the watermark
		// never regresses below what was already expired.
		if ts := d.maxTS.Load(); ts != math.MinInt64 {
			ing.maxSent = ts
			ing.maxTS.Store(ts)
		}
		if wm := d.lastExpire.Load(); wm != math.MinInt64 {
			ing.watermark.Store(wm)
		}
	}
	if w := o.ApplyWorkers; w > 1 {
		// Pipelined apply: content runs fan out across a persistent
		// worker pool and successive batches overlap.
		go ing.runPipelined(w)
	} else {
		go ing.run()
	}
	if o.FlushInterval > 0 {
		go ing.tick()
	}
	return ing, nil
}

func (ing *Ingestor) getBuf() []Event { return (*(ing.bufPool.Get().(*[]Event)))[:0] }

func (ing *Ingestor) putBuf(b []Event) {
	b = b[:0]
	ing.bufPool.Put(&b)
}

// Send ingests a content write on v, timestamped by the Ingestor's Clock.
func (ing *Ingestor) Send(v NodeID, value int64) error {
	return ing.SendEvent(Event{Kind: graph.ContentWrite, Node: v, Value: value})
}

// SendEvent ingests one event of the combined stream — content or
// structural (see NewWrite, NewEdgeAdd, NewNodeRemove, …). A zero
// timestamp is stamped by the Ingestor's Clock. The event is buffered;
// it applies when the batch flushes (by size, interval, Flush, or Close).
//
// NodeAdd events allocate their node id at apply time, which an
// asynchronous stream cannot return; a producer that must address the
// node it just created should allocate it first through
// Session.ApplyBatchNodes or Session.AddNode and stream events against
// the returned id.
func (ing *Ingestor) SendEvent(ev Event) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closed {
		return ErrIngestorClosed
	}
	return ing.sendLocked(ev)
}

// SendEvents ingests a slice of events in order under ONE mutex
// acquisition — the batch-parse fast path (the HTTP /ingest handler decodes
// a request body into event slabs and hands them over whole). It returns
// the number of events accepted: on error, events before that index were
// accepted and will apply, the event AT that index was rejected, and no
// later event was examined — exactly the state a SendEvent loop stopping
// at the first failure would leave. The caller keeps ownership of evs.
func (ing *Ingestor) SendEvents(evs []Event) (int, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closed {
		return 0, ErrIngestorClosed
	}
	for i, ev := range evs {
		if err := ing.sendLocked(ev); err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

// sendLocked is the accept path shared by SendEvent and SendEvents:
// stamping, the MaxTimestampJump guard, buffering and size-triggered
// flushes, all under ing.mu.
func (ing *Ingestor) sendLocked(ev Event) error {
	if ev.TS == 0 {
		// Stamp under the mutex: buffer order and timestamp order agree,
		// so an Ingestor-clocked stream is in-order at the watermark even
		// with Lateness 0 and concurrent senders.
		ev.TS = ing.clock.Now()
	} else if jump := ing.opts.MaxTimestampJump; jump > 0 &&
		ing.maxSent != math.MinInt64 && ev.TS > ing.maxSent &&
		uint64(ev.TS-ing.maxSent) > uint64(jump) {
		// The unsigned difference is exact even when it exceeds MaxInt64.
		ing.rejected.Add(1)
		return fmt.Errorf("%w: ts %d is %d ahead of %d (max jump %d)",
			ErrTimestampJump, ev.TS, uint64(ev.TS-ing.maxSent), ing.maxSent, jump)
	}
	if len(ing.buf) >= ing.opts.BatchSize {
		// A previous size-triggered flush could not enqueue (fail-fast
		// policy, full queue): the buffer must drain before more events
		// are accepted, or batches would grow unboundedly.
		if err := ing.enqueueLocked(ingestJob{events: ing.buf}); err != nil {
			ing.rejected.Add(1)
			return err
		}
		ing.buf = ing.getBuf()
	}
	ing.buf = append(ing.buf, ev)
	ing.sent.Add(1)
	if ev.TS > ing.maxSent {
		// Advance only for ACCEPTED events: a rejected send must not move
		// the MaxTimestampJump reference point.
		ing.maxSent = ev.TS
	}
	if len(ing.buf) >= ing.opts.BatchSize {
		// The send that fills the batch hands it over, so an
		// exactly-BatchSize tail never sits waiting for a further send
		// (FlushInterval may be disabled). Blocking policy blocks here;
		// fail-fast leaves a full buffer for the pre-append path above to
		// reject against (the event itself was accepted).
		if err := ing.enqueueLocked(ingestJob{events: ing.buf}); err == nil {
			ing.buf = ing.getBuf()
		}
	}
	ing.buffered.Store(int64(len(ing.buf)))
	return nil
}

// enqueueLocked hands a batch to the worker under ing.mu (so batches keep
// send order), honoring the backpressure policy. The depth gauge is
// raised BEFORE the send (and lowered on a fail-fast reject), so a
// concurrent Stats never observes the worker's decrement first and reads
// a negative depth.
func (ing *Ingestor) enqueueLocked(job ingestJob) error {
	ing.depth.Add(1)
	if ing.opts.Backpressure == BackpressureError && job.done == nil {
		select {
		case ing.queue <- job:
		default:
			ing.depth.Add(-1)
			return ErrBackpressure
		}
	} else {
		// Block policy — and every explicit Flush/Close sync point, which
		// must hand its batch over regardless of policy.
		ing.queue <- job
	}
	return nil
}

// Flush hands the current buffer to the worker, waits until everything
// enqueued so far (this buffer included) has applied, and returns any
// apply errors accumulated since the last Flush/Close. On an Ingestor
// shared by several senders the drained errors are the ingestor's, not
// the caller's: they may belong to batches carrying other senders'
// events (batches mix whatever was buffered when they flushed).
func (ing *Ingestor) Flush() error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return ErrIngestorClosed
	}
	buf := ing.buf
	ing.buf = ing.getBuf()
	ing.buffered.Store(0)
	done := make(chan error, 1)
	_ = ing.enqueueLocked(ingestJob{events: buf, done: done})
	ing.mu.Unlock()
	err := <-done
	return errors.Join(append(ing.drainErrors(), err)...)
}

// Close flushes the remaining buffer, waits for the worker to drain, and
// releases it. Further sends fail with ErrIngestorClosed, as does a second
// Close. The session and its queries stay open.
func (ing *Ingestor) Close() error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return ErrIngestorClosed
	}
	ing.closed = true
	var final chan error
	if len(ing.buf) > 0 {
		// The done channel forces enqueueLocked's blocking branch, so the
		// final batch is handed over even under the fail-fast policy with
		// a full queue — Close flushes, it never drops.
		final = make(chan error, 1)
		_ = ing.enqueueLocked(ingestJob{events: ing.buf, done: final})
		ing.buf = nil
	}
	ing.buffered.Store(0)
	close(ing.queue)
	ing.mu.Unlock()
	close(ing.stopTick)
	<-ing.done
	// Everything this Ingestor appended is applied now; force the tail to
	// stable storage so a close-then-kill loses nothing even under the
	// interval/off fsync policies.
	if err := ing.sess.SyncWAL(); err != nil {
		ing.recordError(err)
	}
	errs := ing.drainErrors()
	if final != nil {
		// The worker drained every job before exiting, so the final
		// batch's apply error (if any) is already buffered here.
		if err := <-final; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// run is the sequential apply worker: one goroutine draining the batch
// queue in order.
func (ing *Ingestor) run() {
	defer close(ing.done)
	for job := range ing.queue {
		ing.depth.Add(-1)
		var err error
		if len(job.events) > 0 {
			err = ing.sess.ApplyBatch(job.events)
		}
		ing.finish(job, err)
	}
}

// finish completes one applied batch, in queue order: count it, advance
// the watermark, recycle its buffer, and hand the apply error to the
// waiting Flush/Close (or keep it for the next one). Only one goroutine
// calls it — the sequential worker, or the pipelined completer.
func (ing *Ingestor) finish(job ingestJob, err error) {
	if len(job.events) > 0 {
		ing.applied.Add(int64(len(job.events)))
		ing.batches.Add(1)
		ing.advanceWatermark(job.events)
	}
	if job.events != nil {
		ing.putBuf(job.events) // empty Flush buffers recycle too
	}
	if job.done != nil {
		job.done <- err
	} else if err != nil {
		ing.recordError(err)
	}
}

// --- Pipelined apply (ApplyWorkers > 1, non-durable sessions) ---
//
// The sequential worker above applies one batch at a time: batch N+1 waits
// in the queue while batch N runs through ApplyBatch. The pipelined path
// keeps the queue/buffer stages untouched but splits the apply stage into
// a dispatcher, a pool of persistent content workers, and a completer:
//
//	queue ──▶ dispatcher: split batch into runs
//	            content run    → partition by node across W workers
//	            structural run → FENCE (drain all workers), apply inline
//	          workers: Session.WriteBatch(partition) — serial, order kept
//	          completer: per batch IN ORDER — wait its chunks, advance
//	                     watermark, signal Flush/Close, recycle buffers
//
// Stream semantics are preserved exactly: events on one node always hash
// to the same worker and worker channels are FIFO, so per-node (and, as
// writer slots are 1:1 with nodes, per-writer) order holds across
// overlapping batches; structural fences drain every in-flight content
// chunk before the graph mutates, reproducing ApplyBatch's run barriers;
// and the completer advances the watermark in batch order, so expiry
// timing is monotone just as under the sequential worker.

// pjob is one dequeued batch in flight through the pipeline: wg counts its
// undone content chunks; errs collects structural apply errors (content
// writes cannot fail — unknown nodes are absorbed, exactly as in
// ApplyBatch). errs is written only by the dispatcher and read by the
// completer after receiving pj on the jobs channel.
type pjob struct {
	job  ingestJob
	wg   sync.WaitGroup
	errs []error
}

// pchunk is one worker's message: a content partition of some batch, or a
// barrier the worker acknowledges once every earlier chunk on its channel
// has applied.
type pchunk struct {
	events  []Event
	job     *pjob
	barrier *sync.WaitGroup
}

// runPipelined is the pipelined apply stage: dispatcher loop, worker pool
// and completer replacing the single run() goroutine.
func (ing *Ingestor) runPipelined(workers int) {
	defer close(ing.done)
	chans := make([]chan pchunk, workers)
	var wpool sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan pchunk, cap(ing.queue)+1)
		wpool.Add(1)
		go func(ch chan pchunk) {
			defer wpool.Done()
			for c := range ch {
				if c.barrier != nil {
					c.barrier.Done()
					continue
				}
				// The same content apply every caller uses: serial per
				// engine, subscription fan-out coalesced per chunk.
				_ = ing.sess.WriteBatch(c.events)
				ing.putChunk(c.events)
				c.job.wg.Done()
			}
		}(chans[i])
	}
	jobs := make(chan *pjob, cap(ing.queue)+2)
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for pj := range jobs {
			pj.wg.Wait()
			ing.finish(pj.job, errors.Join(pj.errs...))
		}
	}()
	fence := func() {
		// Worker channels are FIFO: once every worker acknowledges the
		// barrier, every content chunk dispatched before it has applied.
		var b sync.WaitGroup
		b.Add(workers)
		for _, ch := range chans {
			ch <- pchunk{barrier: &b}
		}
		b.Wait()
	}
	parts := make([][]Event, workers)
	for job := range ing.queue {
		ing.depth.Add(-1)
		pj := &pjob{job: job}
		events := job.events
		for i := 0; i < len(events); {
			j := i
			if events[i].IsStructural() {
				for j < len(events) && events[j].IsStructural() {
					j++
				}
				// Structural events are fences: drain every in-flight
				// content chunk — earlier batches' and this batch's — then
				// mutate the graph inline, exactly where the event sits in
				// the stream.
				fence()
				if err := ing.sess.ApplyBatch(events[i:j]); err != nil {
					pj.errs = append(pj.errs, err)
				}
			} else {
				for j < len(events) && !events[j].IsStructural() {
					j++
				}
				ing.dispatchContent(pj, events[i:j], chans, parts)
			}
			i = j
		}
		jobs <- pj
	}
	for _, ch := range chans {
		close(ch)
	}
	wpool.Wait()
	close(jobs)
	cwg.Wait()
}

// dispatchContent splits a content run into per-worker partitions by node
// id and hands each non-empty partition to its worker. Copying into pooled
// chunk buffers (rather than subslicing the batch) lets the batch buffer
// recycle as soon as the completer is done with its timestamps, while
// chunks are still in flight.
func (ing *Ingestor) dispatchContent(pj *pjob, run []Event, chans []chan pchunk, parts [][]Event) {
	workers := len(parts)
	for _, ev := range run {
		p := int(uint64(ev.Node) % uint64(workers))
		if parts[p] == nil {
			parts[p] = ing.getChunk()
		}
		parts[p] = append(parts[p], ev)
	}
	for p, part := range parts {
		if part == nil {
			continue
		}
		parts[p] = nil
		pj.wg.Add(1)
		chans[p] <- pchunk{events: part, job: pj}
	}
}

func (ing *Ingestor) getChunk() []Event {
	if p, ok := ing.chunkPool.Get().(*[]Event); ok {
		return (*p)[:0]
	}
	return make([]Event, 0, 256)
}

func (ing *Ingestor) putChunk(c []Event) {
	c = c[:0]
	ing.chunkPool.Put(&c)
}

// tick is the interval flusher: a partial buffer never waits longer than
// FlushInterval for the next size-triggered flush. A full queue skips the
// tick (the next send or tick retries) so the flusher never stalls.
func (ing *Ingestor) tick() {
	t := time.NewTicker(ing.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-ing.stopTick:
			return
		case <-t.C:
			ing.mu.Lock()
			if !ing.closed && len(ing.buf) > 0 {
				ing.depth.Add(1) // raised before the send; see enqueueLocked
				select {
				case ing.queue <- ingestJob{events: ing.buf}:
					ing.buf = ing.getBuf()
					ing.buffered.Store(0)
				default:
					ing.depth.Add(-1)
				}
			}
			ing.mu.Unlock()
		}
	}
}

// advanceWatermark folds a batch's timestamps into the max-observed
// timestamp and, when the bounded-lateness watermark advanced, expires
// time-based windows up to it. Only one goroutine calls it — the
// sequential apply worker, or the pipelined completer (which processes
// batches in queue order) — so the advance is monotone.
func (ing *Ingestor) advanceWatermark(events []Event) {
	maxTS := ing.maxTS.Load()
	for _, ev := range events {
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
	}
	if maxTS == math.MinInt64 {
		return
	}
	ing.maxTS.Store(maxTS)
	wm := maxTS - ing.opts.Lateness
	if wm > maxTS {
		// Saturate: a timestamp near MinInt64 must not wrap the watermark
		// to a huge positive value and expire every window (MinInt64
		// itself is the unset sentinel).
		wm = math.MinInt64 + 1
	}
	if wm <= ing.watermark.Load() && ing.watermark.Load() != math.MinInt64 {
		return
	}
	ing.watermark.Store(wm)
	if !ing.opts.DisableAutoExpire {
		ing.sess.ExpireAll(wm)
	}
}

// Watermark returns the Ingestor's current low watermark — the maximum
// applied timestamp minus the configured Lateness — and whether any event
// has been applied yet. Time-based windows have been expired up to it
// (unless DisableAutoExpire).
func (ing *Ingestor) Watermark() (int64, bool) {
	wm := ing.watermark.Load()
	return wm, wm != math.MinInt64
}

// recordError keeps apply errors for the next Flush/Close, bounded so an
// unattended Ingestor on a failing stream cannot grow without limit.
func (ing *Ingestor) recordError(err error) {
	ing.errMu.Lock()
	defer ing.errMu.Unlock()
	if len(ing.pending) < 16 {
		ing.pending = append(ing.pending, err)
	}
}

func (ing *Ingestor) drainErrors() []error {
	ing.errMu.Lock()
	defer ing.errMu.Unlock()
	errs := ing.pending
	ing.pending = nil
	return errs
}

// ApplyErrors drains and returns the apply errors buffered since the last
// Flush/Close/ApplyErrors call. Fire-and-forget producers that never
// Flush use it to observe asynchronous per-event failures (a later Flush
// will not re-report drained errors).
func (ing *Ingestor) ApplyErrors() []error {
	return ing.drainErrors()
}

// IngestorStats is a point-in-time summary of an Ingestor.
type IngestorStats struct {
	// Sent counts accepted events; Applied those whose batch has been
	// handed to the session (Applied == Sent means the stream is fully
	// drained — events the session skipped individually, like a duplicate
	// edge-add or a Read, still count, with their errors reported through
	// Flush/Close); Batches the applied batches.
	Sent, Applied, Batches int64
	// Rejected counts sends refused with a typed error — ErrBackpressure
	// (full queue under the fail-fast policy) or ErrTimestampJump.
	Rejected int64
	// QueueDepth is the number of flushed batches awaiting application;
	// Buffered the events not yet flushed into a batch.
	QueueDepth int
	Buffered   int
	// Watermark is the current low watermark; WatermarkValid is false
	// until the first event applies.
	Watermark      int64
	WatermarkValid bool
	// ApplyWorkers is the EFFECTIVE size of the apply stage: the resolved
	// IngestOptions.ApplyWorkers, except that a durable session always
	// reports 1 (its batches apply on the sequential worker whatever was
	// asked for).
	ApplyWorkers int
}

// Stats returns current ingestion statistics. It never takes the send
// mutex, so it stays responsive while senders are blocked on
// backpressure — exactly when an operator wants to look.
func (ing *Ingestor) Stats() IngestorStats {
	wm, ok := ing.Watermark()
	return IngestorStats{
		Sent:           ing.sent.Load(),
		Applied:        ing.applied.Load(),
		Batches:        ing.batches.Load(),
		Rejected:       ing.rejected.Load(),
		QueueDepth:     int(ing.depth.Load()),
		Buffered:       int(ing.buffered.Load()),
		Watermark:      wm,
		WatermarkValid: ok,
		ApplyWorkers:   ing.opts.ApplyWorkers,
	}
}
