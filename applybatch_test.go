package eagr

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/simtest"
)

// mixedStream is a seeded random interleaving of content writes (at ts
// 1, 2, …) and structural churn over ~nodes ids. Invalid events (an
// existing edge, a dead node) are deliberately left in: every side must
// skip them alike.
func mixedStream(seed int64, nodes int) []Event {
	rng := rand.New(rand.NewSource(seed))
	var events []Event
	for ts := int64(1); ts <= 1500; ts++ {
		u, v := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
		if rng.Intn(6) > 0 {
			events = append(events, NewWrite(u, int64(rng.Intn(100)), ts))
			continue
		}
		events = append(events, [...]Event{NewEdgeRemove(u, v, ts), NewNodeRemove(u, ts), NewNodeAdd(ts),
			NewEdgeAdd(u, v, ts), NewEdgeAdd(u, v, ts)}[rng.Intn(5)])
	}
	return events
}

// entryPointSpecs are tuple-window queries only: their answer depends on
// the stream alone, not on when a watermark expired what.
var entryPointSpecs = []QuerySpec{
	{Aggregate: "sum", WindowTuples: 3},
	{Aggregate: "count"},
	{Aggregate: "max", WindowTuples: 2},
}

// doubleRing is the graph the model checks start from: node i hears from
// i+1 and i+3.
func doubleRing(nodes int) *Graph {
	g := NewGraph(nodes)
	for i := 0; i < nodes; i++ {
		_ = g.AddEdge(NodeID((i+1)%nodes), NodeID(i))
		_ = g.AddEdge(NodeID((i+3)%nodes), NodeID(i))
	}
	return g
}

// modelCheck reads every query at every node id ever allocated against the
// simtest model of the same stream: the queries start after before and see
// after. A dead id must answer ErrUnknownNode.
func modelCheck(t *testing.T, label string, g *Graph, before, after []Event, qs []*Query) {
	t.Helper()
	m := simtest.NewModel(g)
	for _, ev := range before {
		_ = m.Apply(ev, nil)
	}
	for i, q := range qs {
		sp := q.Spec()
		m.Register(i, simtest.Spec{Aggregate: sp.Aggregate, WindowTuples: sp.WindowTuples,
			WindowTime: sp.WindowTime, Hops: sp.Hops, Continuous: sp.Continuous})
	}
	for _, ev := range after {
		_ = m.Apply(ev, nil)
	}
	err := m.CheckReads(func(slot int, v NodeID) (simtest.Result, error) {
		r, err := qs[slot].Read(v)
		if errors.Is(err, ErrUnknownNode) {
			err = simtest.ErrUnknownNode
		}
		return simtest.Result(r), err
	}, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// applyByMutator applies one event through the session's single-event
// mutators, ignoring the same per-event errors ApplyBatch skips over.
func applyByMutator(s *Session, ev Event) {
	switch ev.Kind {
	case graph.ContentWrite:
		_ = s.Write(ev.Node, ev.Value, ev.TS)
	case graph.EdgeAdd:
		_ = s.AddEdge(ev.Node, ev.Peer)
	case graph.EdgeRemove:
		_ = s.RemoveEdge(ev.Node, ev.Peer)
	case graph.NodeAdd:
		_, _ = s.AddNode()
	case graph.NodeRemove:
		_ = s.RemoveNode(ev.Node)
	}
}

// applyChunked applies events through ApplyBatch, chunk events at a time.
func applyChunked(s *Session, events []Event, chunk int) {
	for off := 0; off < len(events); off += chunk {
		_ = s.ApplyBatch(events[off:min(off+chunk, len(events))])
	}
}

// entryPoint is one public way of getting a stream into a session. Every
// one of them is a view of Session.apply, so each must leave the session in
// the state the model of the same stream predicts.
type entryPoint struct {
	name  string
	drive func(t *testing.T, s *Session, events []Event)
}

func entryPoints() []entryPoint {
	eps := []entryPoint{
		{"mutators", func(_ *testing.T, s *Session, events []Event) {
			for _, ev := range events {
				applyByMutator(s, ev)
			}
		}},
		{"ApplyBatchNodes", func(t *testing.T, s *Session, events []Event) {
			for off := 0; off < len(events); off += 7 {
				chunk := events[off:min(off+7, len(events))]
				adds := 0
				for _, ev := range chunk {
					if ev.Kind == graph.NodeAdd {
						adds++
					}
				}
				if added, _ := s.ApplyBatchNodes(chunk); len(added) != adds {
					t.Fatalf("ApplyBatchNodes returned %d ids for %d NodeAdd events", len(added), adds)
				}
			}
		}},
	}
	for _, chunk := range []int{1, 7, 64, 1 << 30} {
		eps = append(eps, entryPoint{fmt.Sprintf("ApplyBatch/chunk=%d", chunk), func(_ *testing.T, s *Session, events []Event) {
			applyChunked(s, events, chunk)
		}})
	}
	return append(eps, entryPoint{"Ingestor", func(t *testing.T, s *Session, events []Event) {
		ing, err := s.Ingest(IngestOptions{BatchSize: 32, QueueDepth: 4, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := ing.SendEvents(events); err != nil || n != len(events) {
			t.Fatalf("SendEvents = %d, %v", n, err)
		}
		_ = ing.Close() // surfaces the stream's deliberately-invalid events
	}})
}

// TestApplyBatchMatchesSequentialOracle is the write spine's correctness
// anchor: one seeded mixed content/structural stream driven through EVERY
// public entry point — the single-event mutators, ApplyBatch in several
// chunkings (structural runs coalesced into one repair per query),
// ApplyBatchNodes, and an Ingestor — must leave every query reading exactly
// what the model predicts over the final graph and content.
func TestApplyBatchMatchesSequentialOracle(t *testing.T) {
	const nodes = 48
	for _, ep := range entryPoints() {
		t.Run(ep.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				sess, err := Open(doubleRing(nodes), Options{Algorithm: "iob"})
				if err != nil {
					t.Fatal(err)
				}
				qs := registerAll(t, sess, entryPointSpecs)
				events := mixedStream(seed, nodes)
				ep.drive(t, sess, events)
				modelCheck(t, fmt.Sprintf("seed %d", seed), doubleRing(nodes), nil, events, qs)
			}
		})
	}
}

// TestApplyBatchMatchesOracleMultiHop exercises the coalesced repair under
// 2-hop neighborhoods, where one edge event touches many readers and
// several events in a run can overlap on the same readers.
func TestApplyBatchMatchesOracleMultiHop(t *testing.T) {
	sess, err := Open(doubleRing(32), Options{Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	qs := registerAll(t, sess, []QuerySpec{{Aggregate: "sum"}, {Aggregate: "sum", Hops: 2}})
	events := mixedStream(7, 32)
	applyChunked(sess, events, 32)
	modelCheck(t, "2hop", doubleRing(32), nil, events, qs)
}

// TestApplyBatchStructuralBursts forces long all-structural runs (the case
// the coalescing targets) with interleaved verification points.
func TestApplyBatchStructuralBursts(t *testing.T) {
	const nodes = 40
	rng := rand.New(rand.NewSource(11))
	sess, err := Open(doubleRing(nodes), Options{Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	qs := registerAll(t, sess, []QuerySpec{{Aggregate: "sum", WindowTuples: 4}})
	var all []Event
	for round := int64(0); round < 10; round++ {
		var events []Event
		for i := int64(0); i < 60; i++ { // content prefix
			events = append(events, NewWrite(NodeID(rng.Intn(nodes)), int64(rng.Intn(50)), round*1000+i))
		}
		for i := int64(60); i < 100; i++ { // structural burst
			u, v := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
			events = append(events, [...]Event{NewEdgeRemove(u, v, round*1000+i), NewNodeRemove(u, round*1000+i),
				NewNodeAdd(round*1000 + i), NewEdgeAdd(u, v, round*1000+i)}[rng.Intn(4)])
		}
		_ = sess.ApplyBatch(events)
		all = append(all, events...)
		modelCheck(t, fmt.Sprintf("burst %d", round), doubleRing(nodes), nil, all, qs)
	}
}

// TestApplyBatchRecompilePath runs the model comparison on a
// non-maintainable overlay (VNM_N with negative edges), where a structural
// event falls back to a recompile, one event per batch.
func TestApplyBatchRecompilePath(t *testing.T) {
	sess, err := Open(doubleRing(24), Options{Algorithm: "vnmn"})
	if err != nil {
		t.Fatal(err)
	}
	qs := registerAll(t, sess, []QuerySpec{{Aggregate: "sum"}})
	events := mixedStream(3, 24)[:300]
	applyChunked(sess, events, 1)
	modelCheck(t, "recompile", doubleRing(24), nil, events, qs)
}

// TestApplyBatchNodesSurfacesIDs checks the batch API returns allocated
// node ids in event order, including reused ids a caller could never
// derive from the graph size.
func TestApplyBatchNodesSurfacesIDs(t *testing.T) {
	sess, err := Open(ring(8), Options{Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	// Remove node 3 so its id goes on the free list, then stream one
	// node-add (reuses 3) and a fresh one (8), wiring the first into the
	// graph and writing through it.
	if err := sess.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	added, err := sess.ApplyBatchNodes([]Event{NewNodeAdd(1), NewNodeAdd(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || added[0] != 3 || added[1] != 8 {
		t.Fatalf("added = %v, want [3 8] (reused id first)", added)
	}
	if err := sess.ApplyBatch([]Event{
		NewEdgeAdd(added[0], 0, 3),
		NewWrite(added[0], 11, 4),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := q.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid || res.Scalar != 11 {
		t.Fatalf("read through streamed-in node = %+v, want 11", res)
	}
}

// TestSessionWritePathAllocs pins the fold's hot-path cost: on a
// non-durable session neither the single-event view (whose one-element
// batch must stay on the stack) nor a content-only 256-event batch may
// allocate on their way through Session.apply.
func TestSessionWritePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	sess, err := Open(ring(64))
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, sess, []QuerySpec{{Aggregate: "sum"}, {Aggregate: "sum", WindowTuples: 4}})
	batch := make([]Event, 256)
	for i := range batch {
		batch[i] = NewWrite(NodeID(i%64), int64(i), int64(i+1))
	}
	_ = sess.ApplyBatch(batch) // warm the engines' pooled scratch
	if n := testing.AllocsPerRun(200, func() { _ = sess.Write(3, 7, 1) }); n != 0 {
		t.Errorf("Session.Write allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = sess.ApplyBatch(batch) }); n != 0 {
		t.Errorf("content-only Session.ApplyBatch(256) allocates %v times per call, want 0", n)
	}
}
