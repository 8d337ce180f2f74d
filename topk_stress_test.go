package eagr

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simtest"
)

// TestContinuousTopKConcurrentMatchesBruteForce drives the materialized
// top-k head from every side at once: parallel ApplyBatch callers slide
// tuple windows under push readers while other goroutines read those
// readers and a subscriber takes their notifications. Every finalize and
// every window slide on a reader happens under that reader's node mutex;
// run with -race this checks that nothing reaches a head outside it, and
// after the writers quiesce the last update delivered for each ego and a
// final read must both equal the simtest model's recount of the windows.
func TestContinuousTopKConcurrentMatchesBruteForce(t *testing.T) {
	const (
		nodes, k, window = 48, 3, 4
		writers, batches = 4, 60
		batchLen, domain = 64, 12
	)
	g := NewGraph(nodes)
	for i := 0; i < nodes; i++ {
		// Egos 0..7 have one input (heads that hold every entry), the rest
		// six (more distinct values than the 2k a head keeps).
		offs := []int{1, 2, 3, 5, 8, 13}
		if i < 8 {
			offs = offs[:1]
		}
		for _, d := range offs {
			if err := g.AddEdge(NodeID((i+d)%nodes), NodeID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "topk(3)", WindowTuples: window, Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	egos := make([]NodeID, 16)
	for i := range egos {
		egos[i] = NodeID(i)
	}
	// Delivery is drop-oldest, so "the last update per ego" is only what the
	// engine last sent if nothing was dropped: the buffer holds every update
	// this test can cause, and the drop count is checked below.
	ch, cancel, err := q.Subscribe(1<<16, egos...)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	last := map[NodeID]Result{}
	var consumed sync.WaitGroup
	consumed.Add(1)
	go func() {
		defer consumed.Done()
		for u := range ch {
			last[u.Node] = u.Result
		}
	}()

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var res Result
			for i := r; !stop.Load(); i++ {
				if err := q.ReadInto(egos[i%len(egos)], &res); err != nil {
					t.Error(err)
					return
				}
				if len(res.List) > k {
					t.Errorf("read returned %d values, k=%d", len(res.List), k)
					return
				}
			}
		}(r)
	}

	// Each writer goroutine owns the nodes congruent to it, so a node's
	// write order — and with it the content of its window — is known.
	written := make([][]Event, writers)
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			batch := make([]Event, batchLen)
			for b := 0; b < batches; b++ {
				for i := range batch {
					v := w + writers*rng.Intn(nodes/writers)
					val := 1 + rng.Int63n(domain)
					batch[i] = NewWrite(NodeID(v), val, int64(b*batchLen+i+1))
				}
				written[w] = append(written[w], batch...)
				if err := sess.ApplyBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writing.Wait()
	stop.Store(true)
	readers.Wait()
	if d := sess.Stats().DroppedUpdates; d != 0 {
		t.Fatalf("%d updates dropped; the last-update check needs all of them", d)
	}
	cancel()
	consumed.Wait()

	m := simtest.NewModel(g)
	m.Register(0, simtest.Spec{Aggregate: "topk(3)", WindowTuples: window, Continuous: true})
	for _, evs := range written {
		for _, ev := range evs {
			_ = m.Apply(ev, nil)
		}
	}
	for _, ego := range egos {
		want, _ := m.Read(0, ego)
		got, err := q.Read(ego)
		if err != nil {
			t.Fatal(err)
		}
		if !simtest.Result(got).Eq(want) {
			t.Errorf("ego %d: final read %v, model %v", ego, got, want)
		}
		if u, ok := last[ego]; !ok || !simtest.Result(u).Eq(want) {
			t.Errorf("ego %d: last update %v (delivered=%v), model %v", ego, u, ok, want)
		}
	}
}

// TestTopKAbsurdKFromSpec registers the k a hostile client would send and
// takes both paths that finalize a reader, a notification and a read: k
// must size nothing, in either the push form or the pull form of the query.
func TestTopKAbsurdKFromSpec(t *testing.T) {
	for _, continuous := range []bool{true, false} {
		g := NewGraph(4)
		for i := 1; i < 4; i++ {
			if err := g.AddEdge(NodeID(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		sess, err := Open(g)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Register(QuerySpec{Aggregate: "topk(4000000000000000000)", Continuous: continuous})
		if err != nil {
			t.Fatal(err)
		}
		ch, cancel, err := q.Subscribe(16, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, val := range []int64{7, 7, 5} {
			if err := sess.Write(NodeID(i+1), val, int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := q.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int64{7, 5}; !got.Valid || !slices.Equal(got.List, want) {
			t.Fatalf("continuous=%v: read %v, want %v", continuous, got, want)
		}
		cancel()
		var last Update
		for u := range ch {
			last = u
		}
		// only a push reader notifies; the pull form was finalized by the read
		if want := []int64{7, 5}; continuous && !slices.Equal(last.Result.List, want) {
			t.Fatalf("continuous=%v: last update %v, want %v", continuous, last, want)
		}
	}
}
