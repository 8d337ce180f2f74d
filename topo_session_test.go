package eagr

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/topo"
)

// --- brute-force oracle over the session's real graph ---

func undirNbrs(g *Graph, v NodeID) map[NodeID]bool {
	n := map[NodeID]bool{}
	for _, u := range g.Out(v) {
		if u != v {
			n[u] = true
		}
	}
	for _, u := range g.In(v) {
		if u != v {
			n[u] = true
		}
	}
	return n
}

func bruteTriangles(g *Graph, v NodeID) int64 {
	nv := undirNbrs(g, v)
	nb := make([]NodeID, 0, len(nv))
	for u := range nv {
		nb = append(nb, u)
	}
	var t int64
	for i := 0; i < len(nb); i++ {
		na := undirNbrs(g, nb[i])
		for j := i + 1; j < len(nb); j++ {
			if na[nb[j]] {
				t++
			}
		}
	}
	return t
}

func bruteDensity(g *Graph, v NodeID) int64 {
	k := int64(len(undirNbrs(g, v)))
	if k < 2 {
		return 0
	}
	return bruteTriangles(g, v) * 2 * topo.Scale / (k * (k - 1))
}

func bruteWedges(g *Graph, v NodeID) int64 {
	k := int64(len(undirNbrs(g, v)))
	return k * (k - 1) / 2
}

func bruteEgoBetweenness(g *Graph, v NodeID) int64 {
	nv := undirNbrs(g, v)
	nb := make([]NodeID, 0, len(nv))
	for u := range nv {
		nb = append(nb, u)
	}
	var sum int64
	for i := 0; i < len(nb); i++ {
		na := undirNbrs(g, nb[i])
		for j := i + 1; j < len(nb); j++ {
			b := nb[j]
			if na[b] {
				continue
			}
			nbmap := undirNbrs(g, b)
			c := int64(0)
			for x := range nv {
				if x != nb[i] && x != b && na[x] && nbmap[x] {
					c++
				}
			}
			sum += topo.Scale / (1 + c)
		}
	}
	return sum
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

// TestTopoSessionOracleChurn is the acceptance property test at the session
// layer: 5 seeds of random mixed content/edge/node churn with expiry,
// ingested through ApplyBatch alongside numeric queries, after which every
// topology aggregate must match a brute-force recompute over the live
// graph. Run with -race in CI, it also races churn against subscriptions.
func TestTopoSessionOracleChurn(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
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
		wedges, err := sess.Register(QuerySpec{Aggregate: "wedges"})
		if err != nil {
			t.Fatal(err)
		}
		ebc, err := sess.Register(QuerySpec{Aggregate: "ego-betweenness"})
		if err != nil {
			t.Fatal(err)
		}
		// The window changes no value: it reads live like the others.
		ebcWindowed, err := sess.Register(QuerySpec{Aggregate: "ego-betweenness", WindowTime: 10})
		if err != nil {
			t.Fatal(err)
		}
		// A time-windowed numeric query keeps the content/expiry machinery
		// engaged in the same stream.
		counts, err := sess.Register(QuerySpec{Aggregate: "count", WindowTime: 50})
		if err != nil {
			t.Fatal(err)
		}
		// A standing all-ego subscription races delivery against churn.
		ch, cancel, err := tri.Subscribe(64)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		go func() {
			for range ch {
			}
		}()

		ts := int64(0)
		for burst := 0; burst < 40; burst++ {
			batch := make([]Event, 0, 16)
			for i := 0; i < 12; i++ {
				ts++
				u := NodeID(rng.Intn(n))
				w := NodeID(rng.Intn(n))
				switch op := rng.Intn(100); {
				case op < 33:
					batch = append(batch, NewWrite(u, int64(rng.Intn(100)), ts))
				case op < 64:
					batch = append(batch, NewEdgeAdd(u, w, ts))
				case op < 90:
					batch = append(batch, NewEdgeRemove(u, w, ts))
				case op < 95:
					batch = append(batch, NewNodeAdd(ts))
				default:
					// May target an already-dead node; the batch skips it.
					batch = append(batch, NewNodeRemove(u, ts))
				}
			}
			// Errors are expected: duplicate edges, removals of absent
			// edges — the batch still applies the rest.
			_ = sess.ApplyBatch(batch)
			if burst%7 == 3 {
				sess.ExpireAll(ts - 25)
			}
			g := sess.Graph()
			for v := NodeID(0); int(v) < g.MaxID(); v++ {
				if !g.Alive(v) {
					continue
				}
				if r, err := density.Read(v); err != nil || r.Scalar != bruteDensity(g, v) {
					t.Fatalf("seed %d burst %d: density(%d) = %+v/%v, want %d", seed, burst, v, r, err, bruteDensity(g, v))
				}
				if r, err := tri.Read(v); err != nil || r.Scalar != bruteTriangles(g, v) {
					t.Fatalf("seed %d burst %d: triangles(%d) = %+v/%v, want %d", seed, burst, v, r, err, bruteTriangles(g, v))
				}
				if r, err := wedges.Read(v); err != nil || r.Scalar != bruteWedges(g, v) {
					t.Fatalf("seed %d burst %d: wedges(%d) = %+v/%v, want %d", seed, burst, v, r, err, bruteWedges(g, v))
				}
				if r, err := ebc.Read(v); err != nil || r.Scalar != bruteEgoBetweenness(g, v) {
					t.Fatalf("seed %d burst %d: EB(%d) = %+v/%v, want %d", seed, burst, v, r, err, bruteEgoBetweenness(g, v))
				}
				if r, err := ebcWindowed.Read(v); err != nil || r.Scalar != bruteEgoBetweenness(g, v) {
					t.Fatalf("seed %d burst %d: windowed EB(%d) = %+v/%v, want %d", seed, burst, v, r, err, bruteEgoBetweenness(g, v))
				}
			}
		}
		if sess.Graph().Alive(0) {
			if _, err := counts.Read(0); err != nil {
				t.Fatalf("seed %d: numeric query broke alongside topo: %v", seed, err)
			}
		}
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

// TestTopoDurableRecovery: topology-valued aggregates survive crash
// recovery with zero dedicated WAL records — topo state is a pure function
// of the recovered graph. A durable session with all four topo aggregates
// (and a numeric query in the same stream) takes mixed churn, checkpoints
// mid-stream, crashes, and the recovered session must answer every query
// exactly like a never-crashed oracle that applied the same batches and
// expires.
func TestTopoDurableRecovery(t *testing.T) {
	const n = 16
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, rec, err := OpenDurable(NewGraph(n), DurabilityOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if rec.ReplayedBatches != 0 {
			t.Fatalf("fresh dir replayed %d batches", rec.ReplayedBatches)
		}
		specs := []QuerySpec{
			{Aggregate: "density"},
			{Aggregate: "triangles"},
			{Aggregate: "wedges"},
			{Aggregate: "ego-betweenness", WindowTime: 10},
			{Aggregate: "sum", WindowTime: 40},
		}
		registerAll(t, s, specs)

		var acked [][]Event
		var expires []int64
		ts := int64(0)
		for burst := 0; burst < 30; burst++ {
			batch := make([]Event, 0, 8)
			for i := 0; i < 8; i++ {
				ts++
				u, w := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				switch op := rng.Intn(10); {
				case op < 4:
					batch = append(batch, NewWrite(u, int64(rng.Intn(50)), ts))
				case op < 8:
					batch = append(batch, NewEdgeAdd(u, w, ts))
				default:
					batch = append(batch, NewEdgeRemove(u, w, ts))
				}
			}
			// Per-event structural skips are fine; the batch is logged and
			// replays with identical effect.
			_ = s.ApplyBatch(batch)
			acked = append(acked, batch)
			if burst%6 == 5 {
				s.ExpireAll(ts - 20)
				expires = append(expires, ts-20)
			}
			if burst == 14 {
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("mid-stream checkpoint: %v", err)
				}
			}
		}
		// A final advance after all churn, so the numeric window closes at
		// the same time on both sides of the crash.
		s.ExpireAll(ts)
		expires = append(expires, ts)
		if err := s.SimulateCrash(); err != nil {
			t.Fatal(err)
		}

		s2, rec2, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		if rec2.ReplayedEvents == 0 {
			t.Fatal("crash recovery replayed nothing; the tail after the mid-stream checkpoint is lost")
		}
		if rec2.RecoveredQueries != len(specs) {
			t.Fatalf("recovered %d queries, want %d (topo specs must be durable)", rec2.RecoveredQueries, len(specs))
		}

		oracle, err := Open(NewGraph(n))
		if err != nil {
			t.Fatal(err)
		}
		registerAll(t, oracle, specs)
		ei := 0
		for bi, b := range acked {
			_ = oracle.ApplyBatch(b)
			if bi%6 == 5 && ei < len(expires)-1 {
				oracle.ExpireAll(expires[ei])
				ei++
			}
		}
		oracle.ExpireAll(expires[len(expires)-1])

		// The recovered windowed ego-betweenness view reads like the
		// never-crashed one, and like the current structure, straight
		// after OpenDurable: it waits for no advance of time.
		g2 := s2.Graph()
		ebc, ebcOracle := s2.Queries()[3], oracle.Queries()[3]
		for v := NodeID(0); int(v) < g2.MaxID(); v++ {
			got, gerr := ebc.Read(v)
			want, werr := ebcOracle.Read(v)
			if gerr != nil || werr != nil || !got.Eq(want) || got.Scalar != bruteEgoBetweenness(g2, v) {
				t.Fatalf("seed %d: recovered windowed EB(%d) = %+v/%v, never-crashed %+v/%v, brute force %d",
					seed, v, got, gerr, want, werr, bruteEgoBetweenness(g2, v))
			}
		}
		assertSameResults(t, fmt.Sprintf("topo seed %d", seed), s2, oracle)

		// Recovered topo queries keep maintaining: one more structural
		// change must flow through to reads.
		q := s2.Queries()[1] // triangles
		var a, b NodeID = 0, 1
		if err := s2.ApplyBatch([]Event{NewEdgeAdd(a, b, ts+1)}); err == nil {
			if r, err := q.Read(a); err != nil || r.Scalar != bruteTriangles(g2, a) {
				t.Fatalf("seed %d: post-recovery maintenance broken: %+v/%v, want %d", seed, r, err, bruteTriangles(g2, a))
			}
		}
		if err := s2.CloseDurability(); err != nil {
			t.Fatal(err)
		}
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
