package exec

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// notifyEngine builds an all-push engine over 1,2,3 -> 0 and 2 -> 4.
func notifyEngine(t *testing.T, a agg.Aggregate) *Engine {
	t.Helper()
	g := graph.NewWithNodes(5)
	for _, e := range [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 0}, {2, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	ov := construct.Baseline(ag)
	dataflow.DecideAll(ov, overlay.Push)
	eng, err := New(ov, a, agg.NewTupleWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSubscribeDeliversOnPushPath(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	sub, err := eng.Subscribe(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Unsubscribe(sub)

	// A write on 2 reaches readers 0 and 4; the node-0 subscription must
	// see exactly the node-0 update.
	if err := eng.Write(2, 7, 42); err != nil {
		t.Fatal(err)
	}
	u := <-sub.Updates()
	if u.Node != 0 || u.Result.Scalar != 7 || u.TS != 42 {
		t.Fatalf("update = %+v, want node 0 sum 7 ts 42", u)
	}
	// A write on a node outside reader 0's ego network must not notify.
	if err := eng.Write(0, 5, 43); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-sub.Updates():
		t.Fatalf("unexpected update %+v", u)
	default:
	}
}

func TestSubscribeAllReaders(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	sub, err := eng.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Unsubscribe(sub)
	if err := eng.Write(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	got := map[graph.NodeID]int64{}
	for i := 0; i < 2; i++ {
		u := <-sub.Updates()
		got[u.Node] = u.Result.Scalar
	}
	if got[0] != 3 || got[4] != 3 {
		t.Fatalf("updates = %v, want nodes 0 and 4 at 3", got)
	}
}

func TestSubscribeUnknownNode(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	// Node 3 never appears as an aggregation target (no in-edges), so it
	// has no reader slot in the overlay.
	if _, err := eng.Subscribe(1, 99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestSubscribeDropOldest(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	sub, err := eng.Subscribe(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Unsubscribe(sub)
	// 5 writes into a buffer of 2 with no consumer: 3 drops, and the
	// buffer holds the two newest results.
	for i := 1; i <= 5; i++ {
		if err := eng.Write(1, int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := sub.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
	u1, u2 := <-sub.Updates(), <-sub.Updates()
	if u1.TS != 4 || u2.TS != 5 {
		t.Fatalf("kept ts %d, %d; want 4, 5 (drop-oldest)", u1.TS, u2.TS)
	}
}

func TestUnsubscribeClosesChannel(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	sub, err := eng.Subscribe(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Subscribers(); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
	eng.Unsubscribe(sub)
	eng.Unsubscribe(sub) // idempotent
	if _, ok := <-sub.Updates(); ok {
		t.Fatal("channel should be closed after Unsubscribe")
	}
	if n := eng.Subscribers(); n != 0 {
		t.Fatalf("subscribers = %d, want 0", n)
	}
	// Writes after unsubscribe must not panic or deliver.
	if err := eng.Write(1, 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeNonScalarAggregate(t *testing.T) {
	eng := notifyEngine(t, agg.TopK{K: 2})
	sub, err := eng.Subscribe(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Unsubscribe(sub)
	_ = eng.Write(1, 9, 0)
	_ = eng.Write(2, 4, 1)
	<-sub.Updates()
	u := <-sub.Updates()
	got := map[int64]bool{}
	for _, v := range u.Result.List {
		got[v] = true
	}
	if len(u.Result.List) != 2 || !got[9] || !got[4] {
		t.Fatalf("topk update = %+v, want {9, 4}", u.Result)
	}
}

func TestExpiryNotifies(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	// Rebuild with a time window so expiry produces removals.
	g := graph.NewWithNodes(2)
	_ = g.AddEdge(1, 0)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	ov := construct.Baseline(ag)
	dataflow.DecideAll(ov, overlay.Push)
	eng, err := New(ov, agg.Sum{}, agg.NewTimeWindow(10))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Unsubscribe(sub)
	_ = eng.Write(1, 5, 0)
	<-sub.Updates()
	eng.Apply(nil, 100)
	u := <-sub.Updates()
	if u.Result.Valid && u.Result.Scalar != 0 {
		t.Fatalf("post-expiry update = %+v, want empty/zero sum", u.Result)
	}
}

// TestWriteNoSubscriberAllocs pins the acceptance criterion that the push
// path with zero subscribers stays allocation-free: the notification hook
// must cost one atomic load, not a heap object.
func TestWriteNoSubscriberAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; a Write now draws its accumulator and collector from pools, like every batch")
	}
	eng := notifyEngine(t, agg.Sum{})
	_ = eng.Write(1, 1, 0) // warm pools
	allocs := testing.AllocsPerRun(1000, func() {
		_ = eng.Write(1, 2, 1)
	})
	if allocs != 0 {
		t.Fatalf("writes with no subscriber allocate %.1f/op, want 0", allocs)
	}
}

func TestSubscribeConcurrentWithWrites(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ts int64
		for {
			select {
			case <-stop:
				return
			default:
				ts++
				_ = eng.Write(1, ts, ts)
				_ = eng.Write(2, ts, ts)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		sub, err := eng.Subscribe(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		all, err := eng.Subscribe(2)
		if err != nil {
			t.Fatal(err)
		}
		// Drain a little, then tear down while writes keep flowing.
		select {
		case <-sub.Updates():
		default:
		}
		eng.Unsubscribe(sub)
		eng.Unsubscribe(all)
	}
	close(stop)
	wg.Wait()
}

// TestSlotIndexedSubscriptions covers the dense subscriber lookup: a node
// listed twice is one listener, a batch records only readers somebody
// listens to (by slot or tag-wide), and the table goes away with the last
// subscription.
func TestSlotIndexedSubscriptions(t *testing.T) {
	eng := notifyEngine(t, agg.Sum{})
	both, err := eng.Subscribe(8, 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	only4, err := eng.Subscribe(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(nodes ...graph.NodeID) {
		t.Helper()
		var evs []graph.Event
		for i, v := range nodes {
			evs = append(evs, graph.Event{Kind: graph.ContentWrite, Node: v, Value: 1, TS: int64(i + 1)})
		}
		eng.Apply(evs, graph.NoAdvance)
	}
	pending := func(s *Subscription) (nodes []graph.NodeID) {
		for {
			select {
			case u, open := <-s.Updates():
				if !open {
					return nodes
				}
				nodes = append(nodes, u.Node)
			default:
				return nodes
			}
		}
	}
	batch(2, 2, 1) // 2 reaches readers 0 and 4, 1 reaches 0
	if got := pending(both); len(got) != 2 {
		t.Fatalf("subscriber of {0,4,0} got updates for %v, want one each for 0 and 4", got)
	}
	if got := pending(only4); len(got) != 1 || got[0] != 4 {
		t.Fatalf("subscriber of {4} got updates for %v, want [4]", got)
	}

	recorded := func(v graph.NodeID) int {
		st := eng.state.Load()
		tc := eng.getTouch(st.plan.top.N)
		defer eng.putTouch(tc)
		tc.collect(eng.notify.Load(), st, st.plan.writer(v), 1)
		return len(tc.refs)
	}
	eng.Unsubscribe(both)
	if n := recorded(2); n != 1 {
		t.Fatalf("a write on 2 recorded %d readers with only reader 4 listened to, want 1", n)
	}
	if n := recorded(1); n != 0 {
		t.Fatalf("a write on 1 recorded %d readers though nobody listens to reader 0, want 0", n)
	}
	wide, err := eng.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	if n := recorded(2); n != 2 {
		t.Fatalf("a write on 2 recorded %d readers under a tag-wide subscription, want 2", n)
	}
	eng.Unsubscribe(wide)
	eng.Unsubscribe(only4)
	if eng.notify.Load() != nil || eng.Subscribers() != 0 {
		t.Fatal("the notify table must be dropped with the last subscription")
	}
	batch(2)
	if got := pending(only4); len(got) != 0 {
		t.Fatalf("closed subscription received %v", got)
	}
}

// TestCancelledPathDoesNotNotify: reader 0 aggregates a shared partial over
// writers 1, 2 and 3 minus a negative edge from 3, as VNM_N builds it when
// N(0) = {1, 2}. A write on 3 reaches the reader twice with opposite signs
// and leaves its value where it was, so it sends no Update — alone, or in a
// batch beside a write the reader does hear, whose timestamp the cancelled
// write must not take over.
func TestCancelledPathDoesNotNotify(t *testing.T) {
	ov := overlay.New(0)
	w1, w2, w3 := ov.AddWriter(1), ov.AddWriter(2), ov.AddWriter(3)
	p, r := ov.AddPartial(), ov.AddReader(0, 0)
	for _, e := range []struct {
		from, to overlay.NodeRef
		neg      bool
	}{{w1, p, false}, {w2, p, false}, {w3, p, false}, {p, r, false}, {w3, r, true}} {
		if err := ov.AddEdge(e.from, e.to, e.neg); err != nil {
			t.Fatal(err)
		}
	}
	dataflow.DecideAll(ov, overlay.Push)
	eng, err := New(ov, agg.Sum{}, agg.NewTupleWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Unsubscribe(sub)

	if err := eng.Write(3, 5, 10); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-sub.Updates():
		t.Fatalf("a write outside N(0) sent %+v", u)
	default:
	}
	eng.Apply([]graph.Event{{Node: 1, Value: 4, TS: 20}, {Node: 3, Value: 6, TS: 30}}, graph.NoAdvance)
	if u := <-sub.Updates(); u.Node != 0 || u.Result.Scalar != 4 || u.TS != 20 {
		t.Fatalf("update = %+v, want node 0 sum 4 ts 20", u)
	}
	select {
	case u := <-sub.Updates():
		t.Fatalf("a second update %+v for one batch", u)
	default:
	}
}
