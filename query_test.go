package eagr

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/topo"
)

// handleRow is one query kind under TestQueryHandleContract: how to
// register it and how to make the session deliver an update at ego 0.
type handleRow struct {
	name string
	// register returns the row's query on a fresh session over
	// contractGraph (registering whatever siblings the row needs first).
	register func(t *testing.T, sess *Session) *Query
	// poke changes ego 0's value through the public write surface; step
	// counts calls so pokes can alternate and timestamps can advance.
	poke func(t *testing.T, sess *Session, step int)
	// wire reports whether ReadWire has an answer for this kind; kinds
	// without a partial-aggregate form answer ErrIncompatibleQuery.
	wire bool
	// pullEgo, when non-zero, is a node whose reader the row's dataflow
	// decisions leave pull-annotated, so the allocation check covers an
	// on-demand read too (ego 0 itself is always covered).
	pullEgo NodeID
}

// pullRow is a dataflow row for aggregate spec, re-planned after
// registration for a workload in which ego 0 is read far more often than it
// is written, so it is pushed and subscribable, while ego 2 (fed by node 1)
// is never read and stays pull.
func pullRow(spec string) handleRow {
	return handleRow{
		name: spec + " dataflow",
		register: func(t *testing.T, sess *Session) *Query {
			q := mustRegister(t, sess, QuerySpec{Aggregate: spec})
			wl := dataflow.Uniform(6, 0, 1)
			wl.Read[0] = 100
			if err := q.Internal().Reoptimize(wl); err != nil {
				t.Fatal(err)
			}
			return q
		},
		poke:    pokeWrite,
		wire:    true,
		pullEgo: 2,
	}
}

// contractGraph: ego 0 hears 1 and 2 (1→0, 2→0), 1 and 2 are linked, and
// 3 hangs off 1 — so toggling 3→0 moves every topology aggregate at ego 0
// and a content write on 1 moves every numeric one.
func contractGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(6)
	for _, e := range [][2]NodeID{{1, 0}, {2, 0}, {1, 2}, {3, 1}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func mustRegister(t *testing.T, sess *Session, spec QuerySpec, opts ...Options) *Query {
	t.Helper()
	q, err := sess.Register(spec, opts...)
	if err != nil {
		t.Fatalf("Register(%+v): %v", spec, err)
	}
	return q
}

func pokeWrite(t *testing.T, sess *Session, step int) {
	t.Helper()
	if err := sess.Write(1, int64(step+1), int64(step+1)); err != nil {
		t.Fatal(err)
	}
}

func pokeEdge(t *testing.T, sess *Session, step int) {
	t.Helper()
	var err error
	if step%2 == 0 {
		err = sess.AddEdge(3, 0)
	} else {
		err = sess.RemoveEdge(3, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
}

var handleRows = []handleRow{
	{
		name: "sum",
		register: func(t *testing.T, sess *Session) *Query {
			return mustRegister(t, sess, QuerySpec{Aggregate: "sum", Continuous: true})
		},
		poke: pokeWrite,
		wire: true,
	},
	{
		name: "merged-family member",
		register: func(t *testing.T, sess *Session) *Query {
			sibling := mustRegister(t, sess, QuerySpec{Aggregate: "sum", Continuous: true})
			q := mustRegister(t, sess, QuerySpec{Aggregate: "sum", Continuous: true, Hops: 2})
			if _, family, _ := q.Sharing(); family != 2 || q.Internal() != sibling.Internal() {
				t.Fatalf("1-hop and 2-hop continuous sums must merge into one family (family=%d)", family)
			}
			return q
		},
		poke: pokeWrite,
		wire: true,
	},
	{
		name: "topk(3)",
		register: func(t *testing.T, sess *Session) *Query {
			return mustRegister(t, sess, QuerySpec{Aggregate: "topk(3)", Continuous: true})
		},
		poke: pokeWrite,
		wire: true,
	},
	pullRow("max"),
	pullRow("topk(3)"),
	{
		name: "density",
		register: func(t *testing.T, sess *Session) *Query {
			return mustRegister(t, sess, QuerySpec{Aggregate: "density"})
		},
		poke: pokeEdge,
	},
	{
		name: "windowed ego-betweenness",
		register: func(t *testing.T, sess *Session) *Query {
			return mustRegister(t, sess, QuerySpec{Aggregate: "ego-betweenness", WindowTime: 10})
		},
		poke: pokeEdge,
	},
}

// backingSubscribers reports the live subscription count on the compiled
// state behind q, through a probe that keeps working after q closes.
func backingSubscribers(t *testing.T, q *Query) func() int {
	t.Helper()
	switch v := q.view.(type) {
	case *overlayView:
		return v.System().Engine().Subscribers
	case *structureView:
		return v.View.Subscribers
	}
	t.Fatalf("unknown view type %T", q.view)
	return nil
}

// TestQueryHandleContract pins ONE behavior for every kind of standing
// query behind a *Query: the read surface agrees with itself and does not
// allocate, subscriptions deliver and cancel idempotently, and a closed
// handle gives the same closed answers whatever it fronted.
func TestQueryHandleContract(t *testing.T) {
	for _, row := range handleRows {
		t.Run(row.name, func(t *testing.T) {
			sess, err := Open(contractGraph(t))
			if err != nil {
				t.Fatal(err)
			}
			q := row.register(t, sess)
			step := 0
			poke := func() { row.poke(t, sess, step); step++ }
			poke()

			// Read ≡ ReadInto, over every node (a retained result is
			// overwritten, never merged into).
			var res Result
			for v := NodeID(0); v < 6; v++ {
				want, rerr := q.Read(v)
				ierr := q.ReadInto(v, &res)
				if (rerr == nil) != (ierr == nil) || (rerr == nil && !reflect.DeepEqual(want, res)) {
					t.Fatalf("node %d: Read = %+v/%v, ReadInto = %+v/%v", v, want, rerr, res, ierr)
				}
			}
			if r, err := q.Read(0); err != nil || !r.Valid {
				t.Fatalf("Read(0) after a poke = %+v/%v, want a valid result", r, err)
			}
			if _, err := q.Read(99); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("Read(unknown) err = %v, want ErrUnknownNode", err)
			}
			egos := []NodeID{0}
			if row.pullEgo != 0 {
				if q.Covered(row.pullEgo) {
					t.Fatalf("ego %d must read through a pull node", row.pullEgo)
				}
				egos = append(egos, row.pullEgo)
			}
			for _, v := range egos {
				if raceEnabled { // race instrumentation allocates
					break
				}
				if allocs := testing.AllocsPerRun(200, func() {
					if err := q.ReadInto(v, &res); err != nil {
						t.Fatal(err)
					}
				}); allocs > 0 {
					t.Fatalf("ReadInto(%d) with a retained result allocates %.1f allocs/op, want 0", v, allocs)
				}
			}

			_, werr := q.ReadWire(0)
			if row.wire && werr != nil {
				t.Fatalf("ReadWire err = %v", werr)
			}
			if !row.wire && !errors.Is(werr, ErrIncompatibleQuery) {
				t.Fatalf("ReadWire on a kind with no partial form: err = %v, want ErrIncompatibleQuery", werr)
			}

			if !q.Covered(0) {
				t.Fatal("ego 0 must be covered")
			}
			if q.Covered(99) {
				t.Fatal("unknown node must not be covered")
			}

			// Subscribe delivers; a slow consumer drops oldest and the count
			// survives an idempotent cancel.
			subscribers := backingSubscribers(t, q)
			ch, cancel, err := q.Subscribe(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n := subscribers(); n != 1 {
				t.Fatalf("backing subscribers = %d, want 1", n)
			}
			poke()
			select {
			case u := <-ch:
				if want, _ := q.Read(0); u.Node != 0 || !reflect.DeepEqual(u.Result, want) {
					t.Fatalf("update = %+v, want node 0 = %+v", u, want)
				}
			default:
				t.Fatal("no delivery after a poke")
			}
			poke()
			poke()
			poke() // buffer 1, nobody draining: at least two dropped
			dropped := q.Stats().DroppedUpdates
			if dropped < 2 {
				t.Fatalf("DroppedUpdates = %d, want >= 2", dropped)
			}
			cancel()
			cancel() // idempotent
			for range ch {
			} // closed by cancel
			if got := q.Stats().DroppedUpdates; got != dropped {
				t.Fatalf("DroppedUpdates after cancel = %d, want %d kept", got, dropped)
			}
			if got := sess.Stats().DroppedUpdates; got != dropped {
				t.Fatalf("session DroppedUpdates = %d, want %d", got, dropped)
			}
			if n := subscribers(); n != 0 {
				t.Fatalf("backing subscribers after cancel = %d, want 0", n)
			}
			if _, _, err := q.Subscribe(1, 99); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("subscribe unknown node: err = %v, want ErrUnknownNode", err)
			}

			// Close sweeps live subscriptions, then every method gives its
			// closed answer — the closed check comes before any kind's own.
			live, _, err := q.Subscribe(4)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			for range live {
			} // closed by Close
			if n := subscribers(); n != 0 {
				t.Fatalf("backing subscribers after Close = %d, want 0", n)
			}
			if err := q.Close(); !errors.Is(err, ErrQueryClosed) {
				t.Fatalf("double Close err = %v, want ErrQueryClosed", err)
			}
			if _, err := q.Read(0); !errors.Is(err, ErrQueryClosed) {
				t.Fatalf("Read after Close err = %v", err)
			}
			if err := q.ReadInto(0, &res); !errors.Is(err, ErrQueryClosed) {
				t.Fatalf("ReadInto after Close err = %v", err)
			}
			if _, err := q.ReadWire(0); !errors.Is(err, ErrQueryClosed) {
				t.Fatalf("ReadWire after Close err = %v, want ErrQueryClosed", err)
			}
			if _, _, err := q.Subscribe(1); !errors.Is(err, ErrQueryClosed) {
				t.Fatalf("Subscribe after Close err = %v", err)
			}
			if q.Covered(0) {
				t.Fatal("Covered after Close")
			}
			if st := q.Stats(); st != (Stats{}) {
				t.Fatalf("Stats after Close = %+v, want zero", st)
			}
			if s, f, o := q.Sharing(); s != 0 || f != 0 || o != 0 {
				t.Fatalf("Sharing after Close = %d/%d/%d, want zeros", s, f, o)
			}
			if q.Internal() != nil {
				t.Fatal("Internal after Close must be nil")
			}
			if sess.Query(q.ID()) != nil {
				t.Fatal("closed query still indexed by the session")
			}

			// Subscribe racing Close: whichever wins, the subscription must
			// not outlive the handle on the backing view, and a channel that
			// was handed out must end.
			for i := 0; i < 20; i++ {
				rq := row.register(t, sess)
				subscribers := backingSubscribers(t, rq)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					ch, cancel, err := rq.Subscribe(2)
					if err != nil {
						if !errors.Is(err, ErrQueryClosed) {
							t.Errorf("racing Subscribe err = %v", err)
						}
						return
					}
					defer cancel()
					for range ch {
					}
				}()
				if err := rq.Close(); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				if n := subscribers(); n != 0 {
					t.Fatalf("iteration %d: %d subscription(s) outlived Close on the backing view", i, n)
				}
				for _, other := range sess.Queries() { // the row's siblings
					if err := other.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestTopoEngineDroppedWithLastView: the topology engine rides the
// structural mutation path only while a topology query is live. After the
// last one closes the session must detach and forget it (later churn never
// reaches it), and the next topology Register must rebuild it from the
// then-current graph.
func TestTopoEngineDroppedWithLastView(t *testing.T) {
	sess, err := Open(contractGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	churn := func(from int) {
		t.Helper()
		for i := from; i < from+3; i++ {
			if err := sess.AddEdge(NodeID(i), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	density := mustRegister(t, sess, QuerySpec{Aggregate: "density"})
	twin := mustRegister(t, sess, QuerySpec{Aggregate: "density"})
	if err := sess.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := density.Close(); err != nil {
		t.Fatal(err)
	}
	old := sess.topoEng
	if old == nil {
		t.Fatal("engine dropped while a topology query is still live")
	}
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}
	if sess.topoEng != nil {
		t.Fatal("topo engine still attached after the last topology query closed")
	}
	// A view taken straight off the retired engine shows what it last saw.
	ts, err := topo.Parse("density")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := old.Acquire(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := stale.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteDensity(sess.Graph(), 0); before.Scalar != want {
		t.Fatalf("density(0) at retirement = %d, want %d", before.Scalar, want)
	}
	churn(3) // 3→0, 4→0, 5→0
	if bruteDensity(sess.Graph(), 0) == before.Scalar {
		t.Fatal("test churn must move density(0)")
	}
	if after, err := stale.Read(0); err != nil || after.Scalar != before.Scalar {
		t.Fatalf("churn after the last close still reached the retired engine: %+v -> %+v (%v)", before, after, err)
	}

	again := mustRegister(t, sess, QuerySpec{Aggregate: "density"})
	if sess.topoEng == nil || sess.topoEng == old {
		t.Fatal("re-registering must build a fresh engine")
	}
	for _, e := range [][2]NodeID{{4, 5}, {3, 4}} {
		if err := sess.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	for v := NodeID(0); v < 6; v++ {
		got, err := again.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteDensity(sess.Graph(), v); got.Scalar != want {
			t.Fatalf("rebuilt engine: density(%d) = %d, want %d", v, got.Scalar, want)
		}
	}
	if st := sess.Stats(); st.TopoViews != 1 {
		t.Fatalf("TopoViews = %d, want 1", st.TopoViews)
	}
}
