package eagr

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/simtest"
)

func TestSessionSharesPartialAggregators(t *testing.T) {
	// Acceptance criterion: two same-aggregate queries on one session own
	// fewer partial aggregators than two independent single-query systems.
	soloSess, err := Open(ring(32), Options{Algorithm: "vnma"})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := soloSess.Register(QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	independent := 2 * solo.Stats().Partials
	if independent == 0 {
		t.Skip("fixture produced no partials")
	}

	sess, err := Open(ring(32), Options{Algorithm: "vnma"})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := sess.Register(QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sess.Register(QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Queries != 2 || st.Groups != 1 {
		t.Fatalf("stats = %+v, want 2 queries in 1 group", st)
	}
	if st.Partials >= independent {
		t.Fatalf("session partials = %d, independent = %d; sharing must win", st.Partials, independent)
	}
	if q1.Stats().Shared != 2 || q2.Stats().Shared != 2 {
		t.Fatal("both handles must report Shared=2")
	}
	// Both handles answer identically from the shared aggregators.
	_ = sess.Write(1, 5, 0)
	r1, _ := q1.Read(0)
	r2, _ := q2.Read(0)
	if !r1.Eq(r2) {
		t.Fatalf("shared queries disagree: %v vs %v", r1, r2)
	}
}

// TestCompatKeyCanonicalization pins that equivalent spellings of one
// configuration share an overlay: WindowTuples 0 and 1 both mean
// most-recent-value, Hops 0 and 1 both mean 1-hop, "" and "dataflow" are
// the same mode, and 0 iterations is the construct default.
func TestCompatKeyCanonicalization(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum", WindowTuples: 1, Hops: 1},
		Options{Mode: "dataflow", Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Stats().Shared; got != 2 {
		t.Fatalf("equivalent spellings share = %d, want 2", got)
	}
	if got := sess.Stats().Groups; got != 1 {
		t.Fatalf("groups = %d, want 1", got)
	}
	// Hops via spec and the same neighborhood via Options are one config.
	h1, err := sess.Register(QuerySpec{Aggregate: "sum", Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sess.Register(QuerySpec{Aggregate: "sum"}, Options{Neighborhood: KHop(2)})
	if err != nil {
		t.Fatal(err)
	}
	if h1.Stats().Shared != 2 || h2.Stats().Shared != 2 {
		t.Fatalf("hops-vs-neighborhood spellings: shared = %d/%d, want 2/2",
			h1.Stats().Shared, h2.Stats().Shared)
	}
	// Distinct K beyond Name()'s "in-khop" collapse are different member
	// views: they share ONE merged overlay (same family, same underlying
	// system) but never each other's exact member — their results must
	// stay independent.
	h3, err := sess.Register(QuerySpec{Aggregate: "sum", Hops: 3})
	if err != nil {
		t.Fatal(err)
	}
	h4, err := sess.Register(QuerySpec{Aggregate: "sum", Hops: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h3.Internal() != h4.Internal() {
		t.Fatal("3-hop and 4-hop sum queries should merge into one family overlay")
	}
	if h3.Stats().Shared != 1 || h4.Stats().Shared != 1 {
		t.Fatalf("merged members must not count as exact twins: shared = %d/%d",
			h3.Stats().Shared, h4.Stats().Shared)
	}
	if fam := h3.Stats().Family; fam < 2 {
		t.Fatalf("family size = %d, want >= 2", fam)
	}
	// Same for filtered neighborhoods over different-depth bases: the base
	// identity distinguishes the member views inside the shared family.
	keep := func(_ *Graph, _, _ NodeID) bool { return true }
	f3, err := sess.Register(QuerySpec{Aggregate: "sum"},
		Options{Neighborhood: Filtered(KHop(3), keep, "near")})
	if err != nil {
		t.Fatal(err)
	}
	f5, err := sess.Register(QuerySpec{Aggregate: "sum"},
		Options{Neighborhood: Filtered(KHop(5), keep, "near")})
	if err != nil {
		t.Fatal(err)
	}
	if f3.Stats().Shared != 1 || f5.Stats().Shared != 1 {
		t.Fatalf("filtered 3-hop and 5-hop bases must not share exactly: %d/%d",
			f3.Stats().Shared, f5.Stats().Shared)
	}
	// On the 8-ring, every node's 3-hop in-neighborhood has 6 nodes and
	// the 4-hop one 7: after one write everywhere, the merged members must
	// read their OWN views, not each other's.
	for i := NodeID(0); i < 8; i++ {
		if err := sess.Write(i, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	r3, err := h3.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := h4.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Scalar != 6 || r4.Scalar != 7 {
		t.Fatalf("merged views answer wrong neighborhoods: 3-hop=%d (want 6), 4-hop=%d (want 7)",
			r3.Scalar, r4.Scalar)
	}
}

func TestContinuousModeCanonicalization(t *testing.T) {
	sess, err := Open(ring(6))
	if err != nil {
		t.Fatal(err)
	}
	// Continuous forces all-push at compile time; an explicit all-push
	// spelling is the same configuration and must share.
	c1, err := sess.Register(QuerySpec{Aggregate: "sum", Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sess.Register(QuerySpec{Aggregate: "sum", Continuous: true}, Options{Mode: "all-push"})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Internal() != c2.Internal() {
		t.Fatal("continuous queries with equivalent modes must share an overlay")
	}
}

func TestUnknownModeAndAlgorithmTyped(t *testing.T) {
	sess, err := Open(ring(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}, Options{Mode: "allpush"}); !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("unknown mode: err = %v, want ErrIncompatibleQuery", err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}, Options{Algorithm: "bogus"}); !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("unknown algorithm: err = %v, want ErrIncompatibleQuery", err)
	}
}

func TestSessionDistinctQueriesCoexist(t *testing.T) {
	sess, err := Open(ring(12))
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := sess.Register(QuerySpec{Aggregate: "sum"})
	max, _ := sess.Register(QuerySpec{Aggregate: "max"})
	win, _ := sess.Register(QuerySpec{Aggregate: "sum", WindowTuples: 4})
	if got := sess.Stats().Groups; got != 3 {
		t.Fatalf("groups = %d, want 3 (different aggregate/window must not share)", got)
	}
	for i := 0; i < 12; i++ {
		_ = sess.Write(NodeID(i), int64(i), int64(i))
	}
	s, _ := sum.Read(6) // N(6) = {5, 7}
	m, _ := max.Read(6)
	w, _ := win.Read(6)
	if s.Scalar != 12 || m.Scalar != 7 || w.Scalar != 12 {
		t.Fatalf("sum=%v max=%v windowed=%v", s, m, w)
	}
}

// TestQueryCloseRetires: closing one of two queries sharing an overlay keeps
// the overlay serving the other; the last close tears it down and leaves the
// session usable.
func TestQueryCloseRetires(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := sess.Register(QuerySpec{Aggregate: "sum"})
	q2, _ := sess.Register(QuerySpec{Aggregate: "sum"})
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}
	// The shared overlay survives while q2 references it.
	_ = sess.Write(1, 3, 0)
	if r, err := q2.Read(0); err != nil || r.Scalar != 3 {
		t.Fatalf("surviving query read = %v, %v", r, err)
	}
	if st := sess.Stats(); st.Queries != 1 || st.Groups != 1 {
		t.Fatalf("stats after close = %+v", st)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Queries != 0 || st.Groups != 0 {
		t.Fatalf("stats after last close = %+v", st)
	}
	// The session itself stays usable: register afresh.
	q3, err := sess.Register(QuerySpec{Aggregate: "count"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q3.Read(0); err != nil {
		t.Fatal(err)
	}
}

func TestQuerySubscribeThroughFacade(t *testing.T) {
	g := NewGraph(3)
	_ = g.AddEdge(1, 0)
	_ = g.AddEdge(2, 0)
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum", Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := q.Subscribe(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Write(1, 4, 7); err != nil {
		t.Fatal(err)
	}
	u := <-ch
	if u.Node != 0 || u.Result.Scalar != 4 || u.TS != 7 {
		t.Fatalf("update = %+v, want node 0 sum 4 ts 7", u)
	}
	if st := q.Stats(); st.Subscribers != 1 {
		t.Fatalf("subscribers = %d, want 1", st.Subscribers)
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("channel must close on cancel")
	}
	if _, _, err := q.Subscribe(1, 99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("subscribe unknown node: err = %v, want ErrUnknownNode", err)
	}
}

// TestReoptimizeKeepsContinuousCovered: a re-plan re-decides with the
// system's own procedure, so re-optimizing a Continuous query by hand keeps
// every reader push and its subscriber hears the next write.
func TestReoptimizeKeepsContinuousCovered(t *testing.T) {
	g := NewGraph(3)
	_ = g.AddEdge(1, 0)
	_ = g.AddEdge(2, 0)
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum", Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := q.Subscribe(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := q.Internal().Reoptimize(nil); err != nil {
		t.Fatal(err)
	}
	if !q.Covered(0) {
		t.Fatal("Reoptimize uncovered reader 0 of a Continuous query")
	}
	if err := sess.Write(1, 4, 7); err != nil {
		t.Fatal(err)
	}
	if n := len(ch); n != 1 {
		t.Fatalf("%d updates after one write, want 1", n)
	}
	if u := <-ch; u.Node != 0 || u.Result.Scalar != 4 {
		t.Fatalf("update = %+v, want node 0 sum 4", u)
	}
}

// TestSubscriptionSurvivesRecompile: a structural change on a VNM_N
// overlay recompiles it under a live subscription, whose channel must keep
// delivering every Update through the rebuilt plan, and whose cancel must
// still detach it (the simulator checks each engine's subscriber count at
// every subscribe and cancel).
func TestSubscriptionSurvivesRecompile(t *testing.T) {
	runPins(t, pin{"batches", cell{Durable: true, Algorithm: "vnmn"}, 0, 370, simtest.RecompiledSub},
		pin{"ingestor", cell{Merged: true, Algorithm: "vnmn"}, 1, 85, simtest.RecompiledSub},
		pin{"durable ingestor", cell{Durable: true, Merged: true, Algorithm: "vnmn"}, 1, 51, simtest.RecompiledSub})
}

func TestQueryIDsAndLookup(t *testing.T) {
	sess, err := Open(ring(6))
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := sess.Register(QuerySpec{Aggregate: "sum"})
	q2, _ := sess.Register(QuerySpec{Aggregate: "max"})
	if q1.ID() == q2.ID() {
		t.Fatal("ids must be unique")
	}
	if sess.Query(q1.ID()) != q1 || sess.Query(q2.ID()) != q2 {
		t.Fatal("lookup by id failed")
	}
	list := sess.Queries()
	if len(list) != 2 || list[0] != q1 || list[1] != q2 {
		t.Fatalf("Queries() = %v", list)
	}
	_ = q1.Close()
	if sess.Query(q1.ID()) != nil {
		t.Fatal("closed query must not resolve")
	}
	if sp := q2.Spec(); sp.Aggregate != "max" {
		t.Fatalf("spec = %+v", sp)
	}
}

// TestStatsConcurrentWithStructuralChanges pins the regression where
// Stats() walked the live overlay unserialized against structural repair.
func TestStatsConcurrentWithStructuralChanges(t *testing.T) {
	sess, err := Open(ring(24), Options{Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			u, v := NodeID(i%24), NodeID((i*7+3)%24)
			if u == v {
				continue
			}
			if err := sess.AddEdge(u, v); err == nil {
				_ = sess.RemoveEdge(u, v)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			_ = q.Stats()
			_ = sess.Stats()
		}
	}()
	wg.Wait()
}

// TestSessionConcurrentLifecycle is the acceptance -race test: Register,
// Close and Subscribe churn concurrently with ApplyBatch ingest.
func TestSessionConcurrentLifecycle(t *testing.T) {
	sess, err := Open(ring(32))
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := sess.Register(QuerySpec{Aggregate: "sum", Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]Event, 512)
	for i := range events {
		events[i] = NewWrite(NodeID(i%32), int64(i), int64(i))
	}
	stop := make(chan struct{})
	var ingest, wg sync.WaitGroup
	ingest.Add(1)
	go func() { // ingest storm
		defer ingest.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := sess.ApplyBatch(events); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // subscription churn on the anchor query
		defer wg.Done()
		for i := 0; i < 100; i++ {
			ch, cancel, err := anchor.Subscribe(4, 0)
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-ch:
			default:
			}
			cancel()
		}
	}()
	wg.Add(1)
	go func() { // register/close churn, alternating shared and unshared
		defer wg.Done()
		for i := 0; i < 60; i++ {
			spec := QuerySpec{Aggregate: "sum", Continuous: true} // shares with anchor
			if i%2 == 0 {
				spec = QuerySpec{Aggregate: "count", WindowTuples: 2 + i%3}
			}
			q, err := sess.Register(spec)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := q.Read(0); err != nil {
				t.Error(err)
				return
			}
			if err := q.Close(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	ingest.Wait()
	if _, err := anchor.Read(0); err != nil {
		t.Fatal(err)
	}
}

// TestMergedFamilySessionStats: session stats must surface merged sharing.
func TestMergedFamilySessionStats(t *testing.T) {
	sess, err := Open(ring(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum", Hops: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "max"}); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Queries != 3 || st.Groups != 2 {
		t.Fatalf("queries/groups = %d/%d, want 3/2", st.Queries, st.Groups)
	}
	if st.MergedFamilies != 1 || st.MergedQueries != 2 {
		t.Fatalf("merged families/queries = %d/%d, want 1/2", st.MergedFamilies, st.MergedQueries)
	}
	qs := sess.Queries()
	shared, family, own := qs[0].Sharing()
	if shared != 1 || family != 2 || own != 8 {
		t.Fatalf("q1 sharing = %d/%d/%d, want 1/2/8", shared, family, own)
	}
}

// TestMergedFamilySubscriptionIsolation: each query of a merged family
// hears its own view's readers only.
func TestMergedFamilySubscriptionIsolation(t *testing.T) {
	runPins(t, pin{"batches", cell{Durable: true, Autotune: true, Merged: true}, 0, 234, simtest.TaggedWhole},
		pin{"ingestor", cell{Autotune: true, Merged: true}, 1, 391, simtest.TaggedWhole},
		pin{"plain", cell{Merged: true}, 0, 271, simtest.TaggedWhole})
}
