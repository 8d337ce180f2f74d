package eagr

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/simtest"
	"repro/internal/topo"
)

// modelTopo recomputes a topology-valued aggregate at v over g.
func modelTopo(g *Graph, name string, v NodeID) int64 {
	return simtest.NewModel(g).Eval(simtest.Spec{Aggregate: name}, v).Scalar
}

func TestTopoRegisterValidation(t *testing.T) {
	sess, err := Open(NewGraph(4))
	if err != nil {
		t.Fatal(err)
	}
	bad := []QuerySpec{
		{Aggregate: "density", WindowTuples: 3},  // no tuple windows
		{Aggregate: "triangles", WindowTime: 10}, // incremental: no window
		{Aggregate: "density", Hops: 2},          // 1-hop only
		{Aggregate: "wedges", WindowTime: 5},     // incremental: no window
		{Aggregate: "density(3)"},                // no parameter
	}
	for _, spec := range bad {
		if _, err := sess.Register(spec); !errors.Is(err, ErrIncompatibleQuery) {
			t.Fatalf("Register(%+v) err = %v, want ErrIncompatibleQuery", spec, err)
		}
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "density"}, Options{Neighborhood: KHop(2)}); !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("custom neighborhood on topo query err = %v", err)
	}
	// Unknown names still fail the numeric way.
	if _, err := sess.Register(QuerySpec{Aggregate: "nope"}); !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("unknown aggregate err = %v", err)
	}
}

func TestTopoSpellingsShareOneView(t *testing.T) {
	sess, err := Open(NewGraph(4))
	if err != nil {
		t.Fatal(err)
	}
	q1, err := sess.Register(QuerySpec{Aggregate: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sess.Register(QuerySpec{Aggregate: "TRIANGLES"})
	if err != nil {
		t.Fatal(err)
	}
	if shared, _, _ := q1.Sharing(); shared != 2 {
		t.Fatalf("shared = %d, want 2 (spelling variants must share one view)", shared)
	}
	if st := sess.Stats(); st.TopoViews != 1 || st.Queries != 2 {
		t.Fatalf("stats = %+v, want 1 topo view hosting 2 queries", st)
	}
	if st := q2.Stats(); st.Mode != "topo" || st.Algorithm != "incremental" || st.Shared != 2 {
		t.Fatalf("query stats = %+v", st)
	}
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.TopoViews != 1 {
		t.Fatalf("view torn down while still referenced: %+v", st)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.TopoViews != 0 {
		t.Fatalf("view leaked after last close: %+v", st)
	}
}

func TestTopoSubscribeDelivery(t *testing.T) {
	sess, err := Open(NewGraph(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sess.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	tri, err := sess.Register(QuerySpec{Aggregate: "triangles"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := tri.Subscribe(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Closing 0-1-2 changes ego 1's triangle count to 1.
	if err := sess.ApplyBatch([]Event{NewEdgeAdd(2, 0, 99)}); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-ch:
		if u.Node != 1 || u.Result.Scalar != 1 || u.TS != 99 {
			t.Fatalf("update = %+v", u)
		}
	default:
		t.Fatal("no subscription delivery for structural change")
	}
	// A content write must NOT produce topo deliveries.
	if err := sess.Write(0, 7, 100); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-ch:
		t.Fatalf("content write leaked a topo update: %+v", u)
	default:
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel open after cancel")
	}
	// Subscribing to an unknown node errors.
	if _, _, err := tri.Subscribe(8, 99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("subscribe unknown err = %v", err)
	}
}

func TestTopoEgoBetweennessWindowedSession(t *testing.T) {
	sess, err := Open(NewGraph(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]NodeID{{1, 0}, {2, 0}} {
		if err := sess.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ebc, err := sess.Register(QuerySpec{Aggregate: "ego-betweenness", WindowTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The window changes no value, so a windowless query shares the view.
	live, err := sess.Register(QuerySpec{Aggregate: "ego-betweenness"})
	if err != nil {
		t.Fatal(err)
	}
	if st := ebc.Stats(); st.Algorithm != "on-read" || st.Shared != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Star gains a leaf: EB(0) = C(3,2) = 3 at once, no advance of time.
	if err := sess.AddEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{ebc, live} {
		r, err := q.Read(0)
		if err != nil || r.Scalar != 3*topo.Scale {
			t.Fatalf("EB(0) after AddEdge = %+v/%v, want %d", r, err, 3*topo.Scale)
		}
	}
}

// TestTopoContentPathZeroAlloc pins the acceptance bound: with a topo query
// registered, content-only batches must not touch the topo engine at all —
// the write hot path stays exactly as allocation-free as without it.
func TestTopoContentPathZeroAlloc(t *testing.T) {
	g := NewGraph(64)
	for v := 1; v < 64; v++ {
		if err := g.AddEdge(NodeID(v), NodeID(v%8)); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "triangles"}); err != nil {
		t.Fatal(err)
	}
	events := make([]Event, 32)
	for i := range events {
		events[i] = NewWrite(NodeID(1+i%63), int64(i), int64(i))
	}
	// Warm the engine's write pools.
	for i := 0; i < 4; i++ {
		if err := sess.ApplyBatch(events); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		return // race instrumentation allocates; skip the exact count
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := sess.ApplyBatch(events); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("content-only ApplyBatch allocates %.1f allocs/op with a topo query registered, want 0", allocs)
	}
}

// TestTopoSubscriptionChurnRace races structural churn and watermark
// advances against topology reads and subscription lifecycles. It asserts
// nothing about values — the oracle tests own exactness — its job is to
// give the race detector surface area on the listener/subscription paths.
func TestTopoSubscriptionChurnRace(t *testing.T) {
	const n = 64
	sess, err := Open(NewGraph(n))
	if err != nil {
		t.Fatal(err)
	}
	density, err := sess.Register(QuerySpec{Aggregate: "density"})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := sess.Register(QuerySpec{Aggregate: "triangles"})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := sess.Register(QuerySpec{Aggregate: "ego-betweenness", WindowTime: 30})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One writer: edge-churn batches with periodic watermark ticks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(11))
		ts := int64(0)
		for i := 0; i < 400; i++ {
			batch := make([]Event, 0, 8)
			for j := 0; j < 8; j++ {
				ts++
				u, w := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if rng.Intn(2) == 0 {
					batch = append(batch, NewEdgeAdd(u, w, ts))
				} else {
					batch = append(batch, NewEdgeRemove(u, w, ts))
				}
			}
			// Duplicate adds and absent removes are expected churn noise.
			_ = sess.ApplyBatch(batch)
			if i%16 == 15 {
				sess.ExpireAll(ts)
			}
		}
	}()

	// Readers hitting the standing views while the writer churns.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := NodeID(rng.Intn(n))
				_, _ = density.Read(v)
				_, _ = tri.Read(v)
				_, _ = eb.Read(v)
			}
		}(int64(100 + r))
	}

	// Subscription cyclers: subscribe, drain a few pushes, cancel, repeat.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel, err := tri.Subscribe(32)
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < 4; k++ {
					select {
					case <-ch:
					case <-stop:
						cancel()
						return
					}
				}
				cancel()
			}
		}()
	}
	wg.Wait()
}

// TestTopoSessionOracleChurn: topology-valued aggregates beside numeric
// ones under content, edge and node churn.
func TestTopoSessionOracleChurn(t *testing.T) {
	runPins(t, pin{"batches", cell{}, 0, 42, simtest.TopoChurn}, pin{"ingestor", cell{Merged: true}, 1, 45, simtest.TopoChurn},
		pin{"windowed", cell{TimeWindow: true}, 0, 46, simtest.TopoChurn})
}

// TestTopoDurableRecovery: topology-valued aggregates recover with the
// graph, through checkpoints and crashes.
func TestTopoDurableRecovery(t *testing.T) {
	runPins(t, pin{"batches", cell{Durable: true}, 0, 51, simtest.TopoChurn | simtest.Recovered},
		pin{"ingestor", cell{Durable: true, TimeWindow: true}, 1, 48, simtest.TopoChurn | simtest.Recovered})
}
