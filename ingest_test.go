package eagr

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/workload"
)

// TestIngestorWatermarkMatchesManualExpire: an Ingestor's batches close
// time at the watermark themselves, which the model closes at stream time
// after every batch.
func TestIngestorWatermarkMatchesManualExpire(t *testing.T) {
	runPins(t, pin{"unmerged", cell{TimeWindow: true}, 1, 27, heardTime}, pin{"merged", cell{Merged: true, TimeWindow: true}, 1, 28, heardTime})
}

// TestIngestorExpiryDrivesContinuousSubscription: with no ExpireAll, an
// Ingestor's batches deliver the expiry Updates of time windows.
func TestIngestorExpiryDrivesContinuousSubscription(t *testing.T) {
	runPins(t, seeds(cell{TimeWindow: true}, 1, heardTime, 31, 55, 56)...)
}

// TestIngestorQueueBounded pins the bounded apply queue with a depth-1
// queue and batch size 1. A lone sender applies each batch it fills before
// its Send returns, so nothing ever queues; a second sender running into
// the first one's slow (structural) batches blocks on the full queue rather
// than growing it, and everything accepted still applies.
func TestIngestorQueueBounded(t *testing.T) {
	const nodes = 400
	sess, err := Open(workload.SocialGraph(nodes, 6, 1), Options{Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{
		BatchSize:     1,
		QueueDepth:    1,
		FlushInterval: -1,
		Clock:         LogicalClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// toggle adds (even i) then removes (odd i) one edge per pair of calls:
	// every call is a one-event structural batch, and no call has to look
	// at the graph a concurrent applier may be mutating.
	toggle := func(i int) error {
		u, v := NodeID(i/2%nodes), NodeID((i/2*7+1)%nodes)
		ev := NewEdgeAdd(u, v, 0)
		if i%2 == 1 {
			ev = NewEdgeRemove(u, v, 0)
		}
		return ing.SendEvent(ev)
	}
	for i := 0; i < 500; i++ {
		if err := toggle(i); err != nil {
			t.Fatalf("lone sender, send %d: %v", i, err)
		}
	}
	if st := ing.Stats(); st.Applied != 500 || st.Rejected != 0 || st.QueueDepth != 0 {
		t.Fatalf("lone sender: stats %+v, want 500 applied on the sender's goroutine, none rejected or queued", st)
	}

	// A second sender: one goroutine keeps toggling edges (slow batches it
	// mostly applies itself), this one bursts cheap writes into it, and an
	// observer samples the queue — Stats never takes the send mutex, so it
	// reads the depth exactly while a sender is blocked on a full queue.
	stop := make(chan struct{})
	var structural, maxDepth atomic.Int64
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for i := 500; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := toggle(i); err != nil {
				t.Errorf("structural sender: %v", err)
				return
			}
			structural.Add(1)
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := int64(ing.Stats().QueueDepth); d > maxDepth.Load() {
				maxDepth.Store(d)
			}
			runtime.Gosched()
		}
	}()
	for structural.Load() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < 1_000_000 && structural.Load() < 50; i++ {
		if err := ing.Send(NodeID(i%nodes), 1); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	close(stop)
	bg.Wait()
	if d := maxDepth.Load(); d > 1 {
		t.Fatalf("queue depth reached %d, QueueDepth is 1", d)
	}
	t.Logf("%d structural batches raced the writes; deepest queue seen %d", structural.Load(), maxDepth.Load())
	_ = ing.Flush() // structural toggles may legitimately error; drain them
	if st := ing.Stats(); st.Applied != st.Sent || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want applied == sent and none rejected", st)
	}
	if err := ing.Close(); err != nil && !errors.Is(err, ErrIngestorClosed) {
		t.Fatal(err)
	}
	if err := ing.Send(0, 1); !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("Send after Close = %v, want ErrIngestorClosed", err)
	}
	if err := ing.Flush(); !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("Flush after Close = %v, want ErrIngestorClosed", err)
	}
	if err := ing.Close(); !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("second Close = %v, want ErrIngestorClosed", err)
	}
}

// TestIngestorAutoFlushByInterval checks a partial batch applies without
// reaching BatchSize and without an explicit Flush.
func TestIngestorAutoFlushByInterval(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{BatchSize: 1 << 20, FlushInterval: 2 * time.Millisecond, Clock: LogicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	if err := ing.Send(1, 42); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if res, err := q.Read(0); err == nil && res.Valid && res.Scalar == 42 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("interval flush never applied the buffered write")
}

// TestIngestorConcurrentLifecycle is the -race stress of the streaming
// surface: concurrent senders (content + structural churn) on one
// Ingestor, racing adaptive Rebalance and query attach/retire on the same
// session.
func TestIngestorConcurrentLifecycle(t *testing.T) {
	const nodes = 200
	sess, err := Open(workload.SocialGraph(nodes, 6, 2), Options{Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.Register(QuerySpec{Aggregate: "sum", WindowTuples: 2})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{
		BatchSize:     32,
		FlushInterval: time.Millisecond,
		Clock:         LogicalClock(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 600; i++ {
				if rng.Intn(12) == 0 {
					u := NodeID(rng.Intn(nodes))
					v := NodeID(rng.Intn(nodes))
					ev := NewEdgeAdd(u, v, 0)
					if rng.Intn(2) == 0 {
						ev = NewEdgeRemove(u, v, 0)
					}
					_ = ing.SendEvent(ev) // duplicate/missing edges are fine
					continue
				}
				if err := ing.Send(NodeID(rng.Intn(nodes)), int64(rng.Intn(100))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(s + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := sess.Rebalance(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			q, err := sess.Register(QuerySpec{Aggregate: "max", WindowTuples: 1 + i%3})
			if err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
			if err := q.Close(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Logf("close drained errors (expected under churn): %v", err)
	}
	if _, err := base.Read(0); err != nil && !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("post-stress read: %v", err)
	}
	st := ing.Stats()
	if st.Applied != st.Sent {
		t.Fatalf("close left events unapplied: %+v", st)
	}
}

// TestIngestorTimestampJumpGuard checks MaxTimestampJump: a far-future
// explicit timestamp is rejected with the typed error instead of
// ratcheting the watermark (and expiring every window) forever.
func TestIngestorTimestampJumpGuard(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum", WindowTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{BatchSize: 4, FlushInterval: -1, MaxTimestampJump: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.SendEvent(NewWrite(1, 7, 1_000_000)); err != nil {
		t.Fatalf("first event establishes the domain, got %v", err)
	}
	if err := ing.SendEvent(NewWrite(2, 3, 1_000_050)); err != nil {
		t.Fatalf("in-bound jump rejected: %v", err)
	}
	if err := ing.SendEvent(NewWrite(1, 9, 1_000_000+9_000_000_000)); !errors.Is(err, ErrTimestampJump) {
		t.Fatalf("far-future ts = %v, want ErrTimestampJump", err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	// The poisoned timestamp never entered the stream: the watermark stays
	// in the real domain, and writer 2's in-window value (read through its
	// ring neighbor, node 3) survives.
	if wm, ok := ing.Watermark(); !ok || wm != 1_000_050 {
		t.Fatalf("watermark = %d (%v), want 1000050", wm, ok)
	}
	if res, err := q.Read(3); err != nil || !res.Valid || res.Scalar != 3 {
		t.Fatalf("windowed read after rejected jump = %+v (%v), want 3", res, err)
	}
	if st := ing.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	_ = ing.Close()
}

// TestSecondIngestorKeepsTimeDomain pins that stream time belongs to the
// session, not to one Ingestor, on in-memory and durable sessions alike:
// after Ingestor A streamed ts 1..100 and closed, Ingestor B's first event
// at ts 10^12 is a MaxTimestampJump violation, B starts at A's watermark,
// and the time windows A filled survive.
func TestSecondIngestorKeepsTimeDomain(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var sess *Session
			var err error
			if durable {
				sess, _, err = OpenDurable(ring(8), DurabilityOptions{Dir: t.TempDir()})
			} else {
				sess, err = Open(ring(8))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer sess.CloseDurability()
			q, err := sess.Register(QuerySpec{Aggregate: "sum", WindowTime: 50})
			if err != nil {
				t.Fatal(err)
			}
			opts := IngestOptions{BatchSize: 16, FlushInterval: -1, MaxTimestampJump: 1000}
			a, err := sess.Ingest(opts)
			if err != nil {
				t.Fatal(err)
			}
			for ts := int64(1); ts <= 100; ts++ {
				if err := a.SendEvent(NewWrite(NodeID(ts%8), 1, ts)); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := q.Read(0)
			if err != nil || !before.Valid {
				t.Fatalf("read after A = %+v (%v), want a valid window", before, err)
			}

			b, err := sess.Ingest(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.SendEvent(NewWrite(1, 1, 1_000_000_000_000)); !errors.Is(err, ErrTimestampJump) {
				t.Fatalf("B's first event at ts 10^12 = %v, want ErrTimestampJump", err)
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if wm, ok := b.Watermark(); !ok || wm != 100 {
				t.Fatalf("B's watermark = %d (%v), want A's 100", wm, ok)
			}
			if after, err := q.Read(0); err != nil || after.Valid != before.Valid || after.Scalar != before.Scalar {
				t.Fatalf("read after the rejected jump = %+v (%v), want %+v", after, err, before)
			}
		})
	}
}

// TestIngestorCloseFlushesTail pins Close's flush guarantee: buffered
// events apply before Close returns.
func TestIngestorCloseFlushesTail(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "count"})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{
		BatchSize:     1 << 10,
		FlushInterval: -1,
		QueueDepth:    1,
		Clock:         LogicalClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ing.Send(NodeID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats(); st.Applied != 5 || st.Applied != st.Sent {
		t.Fatalf("Close left the tail unapplied: %+v", st)
	}
	if res, err := q.Read(0); err != nil || res.Scalar != 1 {
		t.Fatalf("read after Close = %+v (%v), want count 1", res, err)
	}
}

// TestIngestorBufferGrowsByUse: a pooled batch buffer's capacity comes from
// the batches it held, not from BatchSize. With a BatchSize of 1<<20 and a
// GC before each round, 100 Flushes of 10 events together allocate far less
// than one BatchSize buffer; sized by BatchSize, the first hand-over alone
// allocated one.
func TestIngestorBufferGrowsByUse(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "count"}); err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{BatchSize: 1 << 20, FlushInterval: -1, Clock: LogicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	var before, after runtime.MemStats
	var total uint64
	for round := 0; round < 100; round++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if err := ing.Send(NodeID(i%8), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	if one := uint64(unsafe.Sizeof(Event{})) << 20; total > one/16 {
		t.Fatalf("100 Flushes of 10 events allocated %d bytes; one BatchSize buffer is %d", total, one)
	}
	t.Logf("100 Flushes of 10 events allocated %d bytes", total)
}

// TestIngestorCountsEveryApplyError: an Ingestor nobody flushes keeps at
// most 16 apply errors for the next Flush/Close, but Stats counts every
// batch whose error it kept and names the newest — a fire-and-forget
// producer's only view of a failing stream.
func TestIngestorCountsEveryApplyError(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{BatchSize: 1, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	for range 20 {
		// Each send fills its batch and applies it here: a duplicate edge.
		if err := ing.SendEvent(NewEdgeAdd(1, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := ing.Stats()
	if st.Batches != 20 || st.ApplyErrorCount != 20 || st.LastApplyError == "" {
		t.Fatalf("stats after 20 failing batches = %+v, want 20 batches, 20 errors and the last one named", st)
	}
	if errs := ing.ApplyErrors(); len(errs) == 0 || len(errs) > 16 {
		t.Fatalf("ApplyErrors returned %d errors, want 1..16", len(errs))
	}
	if st := ing.Stats(); st.ApplyErrorCount != 20 {
		t.Fatalf("ApplyErrorCount after draining = %d, want it to stay 20", st.ApplyErrorCount)
	}
}

// poisonAgg counts values like COUNT, except that its PAO panics on the
// first poisonValue it is given: a user-defined aggregate with a bug.
type poisonAgg struct{ armed *atomic.Bool }

const poisonValue = -13

func (poisonAgg) Name() string      { return "poison" }
func (poisonAgg) Props() Properties { return Properties{Subtractable: true} }
func (a poisonAgg) NewPAO() PAO     { return &poisonPAO{armed: a.armed} }

type poisonPAO struct {
	armed *atomic.Bool
	n     int64
}

func (p *poisonPAO) AddValue(v int64) {
	if v == poisonValue && p.armed.CompareAndSwap(true, false) {
		panic("poisonAgg: poisoned value")
	}
	p.n++
}
func (p *poisonPAO) RemoveValue(int64) { p.n-- }
func (p *poisonPAO) Merge(o PAO)       { p.n += o.(*poisonPAO).n }
func (p *poisonPAO) Unmerge(o PAO)     { p.n -= o.(*poisonPAO).n }
func (p *poisonPAO) Finalize() Result  { return Result{Scalar: p.n, Valid: p.n > 0} }
func (p *poisonPAO) Reset()            { p.n = 0 }

// TestIngestorSurvivesApplyPanic: a panic out of Session.ApplyBatch on the
// goroutine holding the apply token reaches that goroutine's caller, but
// the token comes back: a Flush from another goroutine reports the failed
// batch instead of queueing behind an applier that no longer exists, and
// the next batch applies. (The engine leaves the poisoned writer's node
// locked, so the test stays away from node 0 afterwards.)
func TestIngestorSurvivesApplyPanic(t *testing.T) {
	armed := &atomic.Bool{}
	armed.Store(true)
	RegisterAggregate("poison", func(int) Aggregate { return poisonAgg{armed} })
	sess, err := Open(ring(8), Options{Algorithm: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "poison"})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{BatchSize: 2, FlushInterval: -1, Clock: LogicalClock()})
	if err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the apply panic did not reach the sender that held the token")
			}
		}()
		_ = ing.Send(0, poisonValue)
		_ = ing.Send(0, 1) // fills the batch: this goroutine applies it
	}()

	flushed := make(chan error, 1)
	go func() { flushed <- ing.Flush() }()
	select {
	case err := <-flushed:
		if !errors.Is(err, errApplyPanicked) {
			t.Fatalf("Flush after the panic = %v, want errApplyPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush blocked: the apply token was lost with the panic")
	}

	for i := 0; i < 2; i++ {
		if err := ing.Send(4, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatalf("Flush of the following batch: %v", err)
	}
	if got, err := q.Read(5); err != nil || !got.Valid || got.Scalar != 1 {
		t.Fatalf("read(5) = %v, %v; want 1 (node 4's latest write)", got, err)
	}
	if st := ing.Stats(); st.Applied != 2 {
		t.Fatalf("applied = %d, want the 2 events of the batch after the panic", st.Applied)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}
