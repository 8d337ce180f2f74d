package eagr

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Typed errors of the streaming ingestion surface.
var (
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

// StreamClock stamps an event with the largest timestamp its Ingestor has
// accepted so far — the stream's own "now", in whatever unit the producer
// sends (ticks, seconds, nanoseconds) — or 0 before any timestamp exists.
// The Ingestor seeds that reference from the session's stream time, so the
// stamps carry on across a second Ingestor and a durable restart. Outside
// an Ingestor its Now is 0.
func StreamClock() Clock { return streamClock{} }

// streamClock marks IngestOptions.Clock as StreamClock: the Ingestor binds
// it to its own accept-side reference (see streamNow).
type streamClock struct{}

func (streamClock) Now() int64 { return 0 }

// IngestOptions tune an Ingestor; the zero value picks sensible defaults.
type IngestOptions struct {
	// BatchSize is the number of buffered events that triggers an
	// automatic hand-over of the batch to the apply stage (default 256).
	BatchSize int
	// FlushInterval bounds how long a buffered event waits before the
	// interval ticker hands it over even when the batch is not full
	// (default 50ms; negative disables interval flushing, so only
	// BatchSize and explicit Flush/Close hand batches over).
	FlushInterval time.Duration
	// QueueDepth bounds the number of handed-over batches waiting behind
	// the goroutine that is currently applying (default 8). A batch only
	// ever queues while ANOTHER goroutine holds the apply token; a full
	// queue blocks the sender until the applier dequeues a batch —
	// ingestion applies backpressure upstream.
	QueueDepth int
	// Clock stamps events sent without a timestamp: WallClock (unix
	// nanoseconds, the default when nil), LogicalClock (a counter), or
	// StreamClock (the largest timestamp accepted so far).
	Clock Clock
	// MaxTimestampJump, when positive, bounds how far an event's explicit
	// timestamp may run AHEAD of the largest timestamp accepted so far;
	// events further in the future are rejected with ErrTimestampJump
	// (the first event establishes the time domain and is never
	// rejected). The watermark only ratchets forward, so without a bound
	// one corrupt far-future timestamp expires every time-based window
	// permanently — set this on streams fed by untrusted sources. Zero
	// means unbounded.
	MaxTimestampJump int64
	// DisableAutoExpire turns off watermark-driven window expiry: batches
	// stop carrying their advance and the caller owns ExpireAll again.
	DisableAutoExpire bool
	// ApplyWorkers is ignored.
	//
	// Deprecated: it sized a pool of apply goroutines that measured slower
	// than applying on the handing-over goroutine (DESIGN.md §5, "Where
	// parallelism lives"); batches now apply one at a time whatever is set
	// here.
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
	return o
}

// Ingestor is a Session's streaming ingestion handle: a buffered,
// batching, backpressured front-end to ApplyBatch that also makes time
// first-class. Events accumulate into batches (handed over by size, by
// interval, or explicitly) and the apply stage applies them in send order
// down the session's one write path — content runs serially with coalesced
// notifications, structural runs through the coalesced repair path.
//
// The apply stage is a token, not a goroutine (flat combining): whichever
// goroutine hands a batch over while nobody is applying — the Send that
// fills a batch, Flush, the interval tick, Close — takes the token and
// applies the pending batches on its own goroutine until none is left. A
// goroutine that finds the token taken queues its batch behind the applier
// (bounded by QueueDepth; a full queue blocks the sender) and returns; a
// Flush in that position waits for its batch to come out the other end. An
// acknowledged batch from a lone producer therefore costs its ApplyBatch
// and nothing else — no goroutine hand-off, no cross-core traffic on the
// engine's state — and durable and in-memory sessions run the same loop.
//
// The Ingestor reports a low watermark over applied timestamps: the maximum
// timestamp the session has applied so far, its stream time, which the
// Ingestor's batches fold into and read from rather than keep a copy of. A
// batch that moves the watermark closes that time itself: the advance is
// applied with the batch as one transaction (on a durable session one WAL
// append, before either takes effect), so time-windowed and Continuous
// queries deliver expiry updates without any caller ExpireAll, and a
// subscriber gets exactly one Update per touched reader per acknowledged
// batch of pure content — written to, expired, or both — whose value is a
// read taken at the acknowledgement. A batch the session refuses moves no
// time.
//
// All methods are safe for concurrent use. Events from one goroutine are
// applied in the order it sent them; ordering between goroutines follows
// their interleaving at Send (a SendEvents slab may be interleaved with
// other senders' events at the points where it applies a batch itself).
type Ingestor struct {
	sess  *Session
	opts  IngestOptions
	clock Clock

	// mu guards buf, maxSent, closed and unsent. It is held across a
	// hand-over that waits for queue space, so batches enter the queue in
	// send order, and never across an apply.
	mu     sync.Mutex
	buf    []Event
	closed bool
	// unsent counts the events accepted since sent last moved (count).
	unsent int64
	// maxSent is the largest timestamp accepted so far (MinInt64 until
	// the first event), the reference point for MaxTimestampJump.
	maxSent int64

	// qmu guards the apply stage (lock order: mu, then qmu): a FIFO ring
	// of handed-over batches and the apply token. A non-empty queue
	// implies the token is held.
	qmu         sync.Mutex
	space       sync.Cond // signalled per dequeued batch
	queue       []ingestJob
	qhead, qlen int
	applying    bool

	stopTick chan struct{}

	bufPool sync.Pool

	sent     atomic.Int64
	applied  atomic.Int64
	batches  atomic.Int64
	rejected atomic.Int64
	// buffered mirrors len(buf) so Stats never takes ing.mu — a sender
	// blocked on a full queue holds it, and stats must stay readable
	// exactly then (that's when operators look).
	buffered atomic.Int64

	// errMu guards the apply errors kept for the next Flush/Close: pending
	// (bounded), and errCount/lastErr, which count and name every one.
	errMu    sync.Mutex
	pending  []error
	errCount int64
	lastErr  string
}

// ingestJob is one handed-over batch; done, when non-nil, receives the
// apply error (a Flush/Close synchronization point).
type ingestJob struct {
	events []Event
	done   chan error
}

// Ingest returns a streaming ingestion handle on the session. Close it to
// flush and stop the interval ticker; a Session may host any number of
// concurrent Ingestors (their batches interleave at ApplyBatch).
func (s *Session) Ingest(opts IngestOptions) (*Ingestor, error) {
	o := opts.withDefaults()
	ing := &Ingestor{
		sess:     s,
		opts:     o,
		clock:    o.Clock,
		queue:    make([]ingestJob, o.QueueDepth),
		stopTick: make(chan struct{}),
	}
	ing.space.L = &ing.qmu
	// A pooled buffer starts empty and grows by append: its capacity comes
	// from the batches it has held, never from BatchSize alone.
	ing.bufPool.New = func() any { return new([]Event) }
	ing.buf = ing.getBuf()
	// The session's time domain seeds the Ingestor's: the MaxTimestampJump
	// reference and StreamClock's stamp carry over from earlier Ingestors,
	// direct writes and recovery alike.
	ing.maxSent = s.maxTS.Load()
	if _, ok := o.Clock.(streamClock); ok {
		ing.clock = ClockFunc(ing.streamNow)
	}
	if o.FlushInterval > 0 {
		go ing.tick()
	}
	return ing, nil
}

// streamNow is StreamClock bound to this Ingestor; sendLocked calls it
// under ing.mu.
func (ing *Ingestor) streamNow() int64 {
	if ing.maxSent == math.MinInt64 {
		return 0
	}
	return ing.maxSent
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
// it applies when the batch is handed over (by size, interval, Flush, or
// Close) — on this goroutine, before SendEvent returns, when this event
// fills the batch and nobody else is applying.
//
// NodeAdd events allocate their node id at apply time, which an
// asynchronous stream cannot return; a producer that must address the
// node it just created should allocate it first through
// Session.ApplyBatchNodes or Session.AddNode and stream events against
// the returned id.
func (ing *Ingestor) SendEvent(ev Event) error {
	ing.mu.Lock()
	drain, err := ing.sendLocked(ev)
	ing.count()
	ing.mu.Unlock()
	if drain {
		ing.drain()
	}
	return err
}

// SendEvents ingests a slice of events in order — the batch-parse fast
// path (the HTTP /ingest handler decodes a request body into event slabs
// and hands them over whole). The mutex is taken once and released only
// around the applies this call performs itself. It returns the number of
// events accepted: on error, events before that index were accepted and
// will apply, the event AT that index was rejected, and no later event was
// examined — exactly the state a SendEvent loop stopping at the first
// failure would leave. The caller keeps ownership of evs.
func (ing *Ingestor) SendEvents(evs []Event) (int, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for i, ev := range evs {
		drain, err := ing.sendLocked(ev)
		if drain {
			ing.mu.Unlock()
			ing.drain()
			ing.mu.Lock()
		}
		if err != nil {
			ing.count()
			return i, err
		}
	}
	ing.count()
	return len(evs), nil
}

// sendLocked is the accept path shared by SendEvent and SendEvents:
// stamping, the MaxTimestampJump guard, buffering and size-triggered
// hand-overs, all under ing.mu; the caller counts them (count). drain
// reports that a hand-over took the apply token: the caller must release
// ing.mu and call ing.drain.
func (ing *Ingestor) sendLocked(ev Event) (drain bool, err error) {
	if ing.closed {
		return false, ErrIngestorClosed
	}
	if ev.TS == 0 {
		// Stamp under the mutex: buffer order and timestamp order agree,
		// so an Ingestor-clocked stream is in-order at the watermark even
		// with concurrent senders.
		ev.TS = ing.clock.Now()
	} else if jump := ing.opts.MaxTimestampJump; jump > 0 &&
		ing.maxSent != math.MinInt64 && ev.TS > ing.maxSent &&
		uint64(ev.TS-ing.maxSent) > uint64(jump) {
		// The unsigned difference is exact even when it exceeds MaxInt64.
		ing.rejected.Add(1)
		return false, fmt.Errorf("%w: ts %d is %d ahead of %d (max jump %d)",
			ErrTimestampJump, ev.TS, uint64(ev.TS-ing.maxSent), ing.maxSent, jump)
	}
	ing.buf = append(ing.buf, ev)
	ing.unsent++
	if ev.TS > ing.maxSent {
		// Advance only for ACCEPTED events: a rejected send must not move
		// the MaxTimestampJump reference point.
		ing.maxSent = ev.TS
	}
	if len(ing.buf) >= ing.opts.BatchSize {
		// The send that fills the batch hands it over, so an
		// exactly-BatchSize tail never sits waiting for a further send
		// (FlushInterval may be disabled).
		drain = ing.handOver(nil, true)
	}
	return drain, nil
}

// count publishes unsent and the buffer's length, under ing.mu: once per
// send call, and before a hand-over lets the buffer apply.
func (ing *Ingestor) count() {
	ing.sent.Add(ing.unsent)
	ing.unsent = 0
	ing.buffered.Store(int64(len(ing.buf)))
}

// handOver queues the buffered events as one batch behind the apply stage
// and starts a fresh buffer, under ing.mu so batches keep send order. A
// full queue means another goroutine holds the apply token and is
// QueueDepth batches behind: wait selects blocking until it dequeues one
// (every send and Flush/Close) or handing nothing over, the buffer left in
// place (the interval tick, which must never stall). drain reports that the
// token was free and is now the caller's: it must release ing.mu and call
// ing.drain.
func (ing *Ingestor) handOver(done chan error, wait bool) (drain bool) {
	ing.count()
	ing.qmu.Lock()
	for ing.qlen == len(ing.queue) {
		if !wait {
			ing.qmu.Unlock()
			return false
		}
		ing.space.Wait()
	}
	ing.queue[(ing.qhead+ing.qlen)%len(ing.queue)] = ingestJob{events: ing.buf, done: done}
	ing.qlen++
	drain = !ing.applying
	ing.applying = true
	ing.qmu.Unlock()
	ing.buf = ing.getBuf()
	ing.buffered.Store(0)
	return drain
}

// drain is the apply stage, run by the goroutine that took the token in
// handOver, with ing.mu released: it applies queued batches in FIFO order
// — its own and any that other goroutines hand over meanwhile — until the
// queue is empty, then gives the token back. Emptiness is tested and the
// token dropped under one hold of qmu, so a batch is never left queued
// with nobody to apply it.
//
// A panic out of the session (a user-defined aggregate, say) must not take
// the token with it: every later hand-over would queue behind an applier
// that no longer exists, and Flush would block for good. The deferred
// function therefore fails the batch that was being applied, applies what
// is queued behind it — still as the token holder — and only then lets the
// panic go on unwinding into the caller.
func (ing *Ingestor) drain() {
	var job ingestJob
	inApply := false
	defer func() {
		if inApply {
			ing.settle(job, errApplyPanicked)
			ing.drain()
		}
	}()
	ing.qmu.Lock()
	for ing.qlen > 0 {
		job = ing.queue[ing.qhead]
		ing.qhead = (ing.qhead + 1) % len(ing.queue)
		ing.qlen--
		ing.space.Signal() // at most one waiter: they wait holding ing.mu
		ing.qmu.Unlock()
		inApply = true
		var err error
		if w, evs := ing.sess.witness, job.events; w != nil && len(evs) > 0 {
			err = w(evs, func() error { return ing.apply(evs) })
		} else if len(evs) > 0 {
			err = ing.apply(job.events)
		}
		inApply = false
		ing.settle(job, err)
		ing.qmu.Lock()
	}
	ing.applying = false
	ing.qmu.Unlock()
}

// errApplyPanicked is what the waiter of a batch gets when applying it
// panicked; how much of the batch applied is unknown.
var errApplyPanicked = errors.New("eagr: ingest: applying the batch panicked")

// settle ends one batch, applied or not, in queue order: recycle its
// buffer and hand the apply error to the waiting Flush/Close (or keep it
// for the next one). Only the token holder calls it.
func (ing *Ingestor) settle(job ingestJob, err error) {
	ing.putBuf(job.events) // empty Flush buffers recycle too
	if job.done != nil {
		job.done <- err
	} else if err != nil {
		ing.recordError(err)
	}
}

// Flush hands the current buffer to the apply stage, waits until
// everything handed over so far (this buffer included) has applied, and
// returns any apply errors accumulated since the last Flush/Close. On an
// Ingestor shared by several senders the drained errors are the
// ingestor's, not the caller's: they may belong to batches carrying other
// senders' events (batches mix whatever was buffered when they flushed).
func (ing *Ingestor) Flush() error { return ing.barrier(false) }

// Close flushes the remaining buffer, waits until every batch has applied,
// and stops the interval ticker. Further sends fail with
// ErrIngestorClosed, as does a second Close. The session and its queries
// stay open.
func (ing *Ingestor) Close() error { return ing.barrier(true) }

// barrier is Flush and Close: it hands the current buffer over and waits
// for it to apply — on this goroutine if the token was free, behind the
// current applier otherwise; the queue is FIFO, so everything handed over
// earlier has applied by then. Close marks
// the Ingestor closed under the same hold of ing.mu, so the batch it waits
// for is the last one.
func (ing *Ingestor) barrier(closing bool) error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return ErrIngestorClosed
	}
	ing.closed = closing
	done := make(chan error, 1)
	drain := ing.handOver(done, true)
	ing.mu.Unlock()
	if drain {
		ing.drain()
	}
	err := <-done
	if closing {
		close(ing.stopTick)
		// Everything this Ingestor appended is applied now; force the tail
		// to stable storage so a close-then-kill loses nothing even under
		// the interval/off fsync policies.
		if serr := ing.sess.SyncWAL(); serr != nil {
			ing.recordError(serr)
		}
	}
	return errors.Join(append(ing.drainErrors(), err)...)
}

// tick is the interval flusher: a partial buffer never waits longer than
// FlushInterval for the next size-triggered hand-over. It is the one
// goroutine an Ingestor owns. A full queue skips the tick (the next send
// or tick retries) so the flusher never stalls.
func (ing *Ingestor) tick() {
	t := time.NewTicker(ing.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-ing.stopTick:
			return
		case <-t.C:
			ing.mu.Lock()
			drain := false
			if !ing.closed && len(ing.buf) > 0 {
				drain = ing.handOver(nil, false)
			}
			ing.mu.Unlock()
			if drain {
				ing.drain()
			}
		}
	}
}

// apply hands one batch to the session, which closes the batch's own time
// with it (unless DisableAutoExpire): when the batch's timestamps carry the
// stream time past the furthest time already closed, the advance to it
// rides the batch down Session.apply — one WAL append, one engine section,
// one Update per touched reader. A batch the log refused advances nothing,
// while one that applied with per-event skips closes time like any other.
// Only the token holder calls it (from drain), batch by batch in queue
// order, inside the session's witness hook when one is set.
func (ing *Ingestor) apply(events []Event) error {
	_, err := ing.sess.apply(events, graph.NoAdvance, !ing.opts.DisableAutoExpire)
	ing.applied.Add(int64(len(events)))
	ing.batches.Add(1)
	return err
}

// Watermark returns the current low watermark — the largest timestamp the
// session has applied — and whether there is one yet. Unless
// DisableAutoExpire, the Ingestor's batches have expired time-based windows
// up to it.
func (ing *Ingestor) Watermark() (int64, bool) {
	wm := ing.sess.maxTS.Load()
	return wm, wm != math.MinInt64
}

// recordError keeps apply errors for the next Flush/Close, bounded so an
// unattended Ingestor on a failing stream cannot grow without limit. It
// counts every error and keeps the newest message whether or not the
// buffer had room.
func (ing *Ingestor) recordError(err error) {
	ing.errMu.Lock()
	defer ing.errMu.Unlock()
	ing.errCount++
	ing.lastErr = err.Error()
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
	// Flush/Close); Batches the applied batches. Sent moves once per
	// SendEvent or SendEvents call and before each batch it hands over.
	Sent    int64 `json:"sent"`
	Applied int64 `json:"applied"`
	Batches int64 `json:"batches"`
	// Rejected counts sends refused with ErrTimestampJump.
	Rejected int64 `json:"rejected"`
	// QueueDepth is the number of handed-over batches waiting behind the
	// one being applied; Buffered the events not yet handed over.
	QueueDepth int `json:"queueDepth"`
	Buffered   int `json:"buffered"`
	// Watermark is the current low watermark (see Ingestor.Watermark);
	// WatermarkValid is false until the session applies a timestamp.
	Watermark      int64 `json:"watermark"`
	WatermarkValid bool  `json:"watermarkValid"`
	// ApplyErrorCount counts the batches whose apply error was kept for a
	// later Flush/Close rather than handed to a waiting one — what a
	// fire-and-forget producer never sees otherwise — and LastApplyError
	// is the newest such error. Draining them (Flush, Close, ApplyErrors)
	// resets neither.
	ApplyErrorCount int64  `json:"applyErrorCount,omitempty"`
	LastApplyError  string `json:"lastApplyError,omitempty"`
}

// Stats returns current ingestion statistics. It never takes the send
// mutex, so it stays responsive while senders are blocked on
// backpressure — exactly when an operator wants to look.
func (ing *Ingestor) Stats() IngestorStats {
	wm, ok := ing.Watermark()
	ing.qmu.Lock()
	depth := ing.qlen
	ing.qmu.Unlock()
	ing.errMu.Lock()
	errCount, lastErr := ing.errCount, ing.lastErr
	ing.errMu.Unlock()
	return IngestorStats{
		Sent:            ing.sent.Load(),
		Applied:         ing.applied.Load(),
		Batches:         ing.batches.Load(),
		Rejected:        ing.rejected.Load(),
		QueueDepth:      depth,
		Buffered:        int(ing.buffered.Load()),
		Watermark:       wm,
		WatermarkValid:  ok,
		ApplyErrorCount: errCount,
		LastApplyError:  lastErr,
	}
}
