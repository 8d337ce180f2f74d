package eagr

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSendersMatchBruteModel is the combining apply stage's
// correctness anchor. Several sender goroutines share one Ingestor; any of
// them — or the interval ticker, a Flush, or Close — may end up holding
// the apply token and applying the others' batches. Each sender owns a
// disjoint set of nodes (content) and the edges leaving them (structural
// toggles, which fence inside ApplyBatch), so per-sender order alone fixes
// the outcome and every interleaving must read exactly what the simtest
// model predicts over the accepted events. Close races the senders in
// half the configurations: a sender stops at its first ErrIngestorClosed,
// and everything accepted before it must still apply.
func TestConcurrentSendersMatchBruteModel(t *testing.T) {
	const (
		nodes   = 48
		senders = 4
		perSend = 900
	)
	type config struct {
		batch, depth int
		interval     time.Duration
		closeEarly   bool
	}
	configs := []config{
		{batch: 1, depth: 1, interval: -1},
		{batch: 8, depth: 1, interval: time.Millisecond},
		{batch: 8, depth: 2, interval: -1, closeEarly: true},
		{batch: 64, depth: 4, interval: time.Millisecond, closeEarly: true},
		{batch: 256, depth: 8, interval: 200 * time.Microsecond},
	}
	for ci, cfg := range configs {
		sess, err := Open(doubleRing(nodes), Options{Algorithm: "iob"})
		if err != nil {
			t.Fatal(err)
		}
		qs := registerAll(t, sess, entryPointSpecs)
		// A time window too wide to expire anything: it puts ExpireAll and
		// the ring windows on the token holder's path without making the
		// answer depend on when the watermark moved.
		wide, err := sess.Register(QuerySpec{Aggregate: "count", WindowTime: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		ing, err := sess.Ingest(IngestOptions{
			BatchSize:     cfg.batch,
			QueueDepth:    cfg.depth,
			FlushInterval: cfg.interval,
			Clock:         LogicalClock(),
		})
		if err != nil {
			t.Fatal(err)
		}

		streams := make([][]Event, senders)
		accepted := make([]int, senders)
		var wg sync.WaitGroup
		for s := range streams {
			rng := rand.New(rand.NewSource(int64(ci*100 + s)))
			own := func() NodeID { return NodeID(rng.Intn(nodes/senders)*senders + s) }
			for i := 0; i < perSend; i++ {
				switch rng.Intn(8) {
				case 0:
					streams[s] = append(streams[s], NewEdgeAdd(own(), NodeID(rng.Intn(nodes)), 0))
				case 1:
					streams[s] = append(streams[s], NewEdgeRemove(own(), NodeID(rng.Intn(nodes)), 0))
				default:
					streams[s] = append(streams[s], NewWrite(own(), int64(rng.Intn(100)), 0))
				}
			}
			wg.Add(1)
			go func(s int, rng *rand.Rand) {
				defer wg.Done()
				evs := streams[s]
				for len(evs) > 0 {
					var n int
					var err error
					switch k := rng.Intn(10); {
					case k == 0:
						if err = ing.Flush(); errors.Is(err, ErrIngestorClosed) {
							return
						}
						continue // apply errors of the invalid toggles are expected
					case k < 4:
						n = min(1+rng.Intn(3*cfg.batch), len(evs))
						n, err = ing.SendEvents(evs[:n])
					default:
						if err = ing.SendEvent(evs[0]); err == nil {
							n = 1
						}
					}
					accepted[s] += n
					evs = evs[n:]
					if err != nil {
						if !errors.Is(err, ErrIngestorClosed) {
							t.Errorf("sender %d: %v", s, err)
						}
						return
					}
				}
			}(s, rand.New(rand.NewSource(int64(ci*100+s+50))))
		}
		if cfg.closeEarly {
			for ing.Stats().Sent < senders*perSend/3 {
				runtime.Gosched()
			}
		} else {
			wg.Wait()
		}
		_ = ing.Close() // surfaces the deliberately-invalid toggles
		wg.Wait()

		var all []Event
		total := 0
		for s, evs := range streams {
			all = append(all, evs[:accepted[s]]...)
			total += accepted[s]
		}
		label := fmt.Sprintf("config %d %+v", ci, cfg)
		st := ing.Stats()
		if st.Sent != int64(total) || st.Applied != st.Sent || st.QueueDepth != 0 || st.Buffered != 0 || st.Rejected != 0 {
			t.Fatalf("%s: stats %+v, want sent == applied == %d and nothing pending or rejected", label, st, total)
		}
		if cfg.closeEarly && (total == senders*perSend || total == 0) {
			t.Logf("%s: Close did not land mid-stream (%d accepted)", label, total)
		}
		// Events are stamped 1, 2, 3, … under the send mutex, so a monotone
		// watermark that saw every batch ends at the accepted count.
		if wm, ok := ing.Watermark(); total > 0 && (!ok || wm != int64(total)) {
			t.Fatalf("%s: watermark %d (%v), want %d", label, wm, ok, total)
		}
		modelCheck(t, label, doubleRing(nodes), nil, all, append(qs, wide))
	}
}

// TestConcurrentSendersRaceAutotuneAndSubscriptions is the CI stress
// companion (run under -race): two senders share an Ingestor on a
// content-heavy stream while the autotune loop ticks and a
// subscription consumer drains continuous updates. The
// test asserts liveness and a final cross-check against an undisturbed
// sequential session; the race detector owns the memory-safety claim.
func TestConcurrentSendersRaceAutotuneAndSubscriptions(t *testing.T) {
	const nodes = 64
	mk := func() (*Session, *Query) {
		g := NewGraph(nodes)
		for i := 0; i < nodes; i++ {
			_ = g.AddEdge(NodeID((i+1)%nodes), NodeID(i))
			_ = g.AddEdge(NodeID((i+5)%nodes), NodeID(i))
		}
		sess, err := Open(g, Options{Algorithm: "baseline"})
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Register(QuerySpec{Aggregate: "sum", Continuous: true})
		if err != nil {
			t.Fatal(err)
		}
		return sess, q
	}
	sess, q := mk()
	oracle, oq := mk()
	sess.enableAutotune(time.Millisecond)
	defer sess.StopAutotune()

	ch, cancel, err := q.Subscribe(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for range ch {
		}
	}()

	ing, err := sess.Ingest(IngestOptions{
		BatchSize:     32,
		QueueDepth:    4,
		FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender s writes the nodes ≡ s (mod 2): the last value per node — all
	// the unwindowed sum depends on — is fixed by per-sender order.
	rng := rand.New(rand.NewSource(17))
	var streams [2][]Event
	for i := 0; i < 6000; i++ {
		v := NodeID(rng.Intn(nodes))
		streams[v%2] = append(streams[v%2], NewWrite(v, int64(rng.Intn(100)), int64(i+1)))
	}
	var wg sync.WaitGroup
	for _, events := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := 0; off < len(events); off += 97 {
				end := min(off+97, len(events))
				if _, err := ing.SendEvents(events[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	drained.Wait()

	for _, events := range streams {
		for _, ev := range events {
			if err := oracle.Write(ev.Node, ev.Value, ev.TS); err != nil {
				t.Fatal(err)
			}
		}
	}
	for v := 0; v < nodes; v++ {
		got, err1 := q.Read(NodeID(v))
		want, err2 := oq.Read(NodeID(v))
		if err1 != nil || err2 != nil {
			t.Fatalf("node %d: %v / %v", v, err1, err2)
		}
		if got.Valid != want.Valid || got.Scalar != want.Scalar {
			t.Fatalf("node %d: ingested %+v, oracle %+v", v, got, want)
		}
	}
}

// TestIngestorOneUpdatePerReaderPerBatch pins the notification contract of
// the single apply stage: however many of a reader's in-neighbors one
// ingested batch writes — and whether or not the batch also advances the
// watermark and expires what earlier batches wrote — a subscriber on that
// reader gets exactly one Update for the batch, carrying the value a Read
// after the acknowledgement returns and the latest timestamp that reached
// the reader. (The node-partitioned pool this replaced coalesced per
// partition, so a reader fed from two partitions got two; while the advance
// was a second call behind the batch, a time-windowed reader got one Update
// from the writes and another from the expiry.) The senders/ subtests run
// the simulator's concurrent senders over generated graphs and queries.
func TestIngestorOneUpdatePerReaderPerBatch(t *testing.T) {
	runPins(t, pin{"senders/tuples", cell{}, 1, 59, heard}, pin{"senders/durable", cell{Durable: true, Merged: true}, 1, 2, heard},
		pin{"senders/time", cell{TimeWindow: true}, 1, 13, heardTime},
		pin{"senders/durable time", cell{Durable: true, Merged: true, TimeWindow: true}, 1, 42, heardTime})
	const nodes, hot = 32, 4
	newGraph := func() *Graph {
		g := NewGraph(nodes)
		for u := hot; u < nodes; u++ {
			for r := 0; r < hot; r++ {
				_ = g.AddEdge(NodeID(u), NodeID(r)) // every hot ego hears every other node
			}
		}
		return g
	}
	// Two writes per node per batch, one logical-clock tick each: a batch
	// spans 56 ticks, so a 40-tick time window loses the whole previous
	// batch and the head of this one at every batch's own advance.
	specs := []QuerySpec{
		{Aggregate: "sum", Continuous: true},
		{Aggregate: "sum", Continuous: true, WindowTuples: 3},
		{Aggregate: "sum", Continuous: true, WindowTime: 40},
		{Aggregate: "max", Continuous: true, WindowTime: 40},
	}
	for _, durable := range []bool{false, true} {
		for _, spec := range specs {
			name := fmt.Sprintf("%s/tuples=%d/time=%d/durable=%v", spec.Aggregate, spec.WindowTuples, spec.WindowTime, durable)
			t.Run(name, func(t *testing.T) {
				var sess *Session
				var err error
				if durable {
					sess, _, err = OpenDurable(newGraph(), DurabilityOptions{Dir: t.TempDir(), Fsync: FsyncOff})
				} else {
					sess, err = Open(newGraph())
				}
				if err != nil {
					t.Fatal(err)
				}
				defer sess.SimulateCrash() // a no-op on the in-memory session
				q, err := sess.Register(spec)
				if err != nil {
					t.Fatal(err)
				}
				egos := []NodeID{0, 1, 2, 3}
				ch, cancel, err := q.Subscribe(1024, egos...)
				if err != nil {
					t.Fatal(err)
				}
				defer cancel()
				ing, err := sess.Ingest(IngestOptions{FlushInterval: -1, Clock: LogicalClock()})
				if err != nil {
					t.Fatal(err)
				}
				defer ing.Close()
				var batch []Event
				for u := hot; u < nodes; u++ {
					batch = append(batch, NewWrite(NodeID(u), int64(u), 0), NewWrite(NodeID(u), int64(2*u), 0))
				}
				for round := 0; round < 20; round++ {
					if _, err := ing.SendEvents(batch); err != nil {
						t.Fatal(err)
					}
					if err := ing.Flush(); err != nil {
						t.Fatal(err)
					}
					// The batch's last event reaches every ego and carries the
					// batch's largest timestamp, which is the watermark it
					// closed.
					wm, _ := ing.Watermark()
					// Delivery is synchronous with the apply, so after Flush the
					// batch's updates are all in the channel.
					got := map[NodeID]int{}
					for len(ch) > 0 {
						u := <-ch
						got[u.Node]++
						if want, err := q.Read(u.Node); err != nil || !u.Result.Eq(want) {
							t.Fatalf("round %d: ego %d update carries %v, a read after Flush returns %v (%v)", round, u.Node, u.Result, want, err)
						}
						if u.TS != wm {
							t.Fatalf("round %d: ego %d update stamped %d, want %d", round, u.Node, u.TS, wm)
						}
					}
					for _, r := range egos {
						if got[r] != 1 {
							t.Fatalf("round %d: ego %d got %d updates for one batch, want 1 (all: %v)", round, r, got[r], got)
						}
					}
				}
				if d := sess.Stats().DroppedUpdates; d != 0 {
					t.Fatalf("%d updates dropped with a 1024-deep buffer", d)
				}
			})
		}
	}
}

// TestSendEvents covers the slab entry point's contract: all-accepted
// count on success, the index of the first rejected event on error, stats
// that count exactly what each call accepted and buffered, and the
// closed-ingestor fast path.
func TestSendEvents(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(IngestOptions{
		BatchSize:        4,
		FlushInterval:    -1,
		MaxTimestampJump: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		NewWrite(0, 1, 5),
		NewWrite(1, 2, 6),
		NewWrite(2, 3, 1000), // jump of 994 > 10: rejected
		NewWrite(3, 4, 7),
	}
	n, err := ing.SendEvents(evs)
	if n != 2 || !errors.Is(err, ErrTimestampJump) {
		t.Fatalf("SendEvents = %d, %v; want 2, ErrTimestampJump", n, err)
	}
	// The two accepted events are buffered; the rejected one consumed
	// nothing after it.
	if st := ing.Stats(); st.Sent != 2 || st.Buffered != 2 || st.Rejected != 1 {
		t.Fatalf("stats after a slab refused at 2 = %+v, want sent 2, buffered 2, rejected 1", st)
	}
	if n, err := ing.SendEvents(evs[3:]); n != 1 || err != nil {
		t.Fatalf("resume SendEvents = %d, %v", n, err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	// A slab of exactly BatchSize events hands its batch over with its
	// last event and leaves nothing buffered.
	full := []Event{NewWrite(0, 1, 8), NewWrite(1, 1, 9), NewWrite(2, 1, 10), NewWrite(3, 1, 11)}
	if n, err := ing.SendEvents(full); n != len(full) || err != nil {
		t.Fatalf("BatchSize SendEvents = %d, %v", n, err)
	}
	if st := ing.Stats(); st.Sent != 7 || st.Buffered != 0 || st.Applied != 7 {
		t.Fatalf("stats after an exactly-BatchSize slab = %+v, want sent 7, buffered 0, applied 7", st)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := ing.SendEvents(evs[:1]); n != 0 || !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("closed SendEvents = %d, %v; want 0, ErrIngestorClosed", n, err)
	}
}
