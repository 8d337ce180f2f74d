package eagr

import (
	"errors"
	"math/rand"
	"testing"

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

// entryPointPins is one pin per public entry point: the single-event
// mutators (variant 2), the batch spine (variant 0; the names of the
// ApplyBatch chunkings the folded tests ran now pick a cell each, batch
// sizes coming from the generator) and an Ingestor (variant 1).
func entryPointPins(durable bool) []pin {
	crash, ingestor := simtest.State(0), int64(34)
	if durable {
		crash, ingestor = simtest.Recovered, 38
	}
	return []pin{
		{"mutators", cell{Durable: durable}, 2, 2, simtest.AddedNode | crash},
		{"ApplyBatchNodes", cell{Durable: durable, Merged: true}, 0, 101, simtest.AddedNode | crash},
		{"ApplyBatch/chunk=1", cell{Durable: durable, Algorithm: "vnmn"}, 0, 3, simtest.Structural | crash},
		{"ApplyBatch/chunk=7", cell{Durable: durable, TimeWindow: true}, 0, 4, simtest.Structural | crash},
		{"ApplyBatch/chunk=64", cell{Durable: durable, Merged: true, TimeWindow: true}, 0, 5, simtest.Structural | crash},
		{"ApplyBatch/chunk=1073741824", cell{Durable: durable, Merged: true, Algorithm: "vnmn"}, 0, 6, simtest.Structural | crash},
		{"Ingestor", cell{Durable: durable, Merged: true}, 1, ingestor, simtest.Heard | crash},
	}
}

// TestApplyBatchMatchesSequentialOracle: every public entry point of an
// in-memory session reads as the model of the same mixed stream.
func TestApplyBatchMatchesSequentialOracle(t *testing.T) { runPins(t, entryPointPins(false)...) }

// TestApplyBatchMatchesOracleMultiHop: the coalesced repair under 2-hop
// members of merged families.
func TestApplyBatchMatchesOracleMultiHop(t *testing.T) {
	runPins(t, pin{"iob", cell{Merged: true}, 0, 1001, simtest.MultiHop}, pin{"vnmn", cell{Merged: true, Algorithm: "vnmn"}, 1, 1002, simtest.MultiHop})
}

// TestApplyBatchStructuralBursts: batches whose structural runs coalesce
// into one repair per query.
func TestApplyBatchStructuralBursts(t *testing.T) {
	runPins(t, seeds(cell{}, 0, simtest.Burst, 10, 11, 12)...)
}

// TestApplyBatchRecompilePath: VNM_N overlays, which structural events
// recompile, one event per batch and in batches.
func TestApplyBatchRecompilePath(t *testing.T) {
	runPins(t, pin{"mutators", cell{Algorithm: "vnmn"}, 2, 13, simtest.Recompiled},
		pin{"batches", cell{Autotune: true, TimeWindow: true, Algorithm: "vnmn"}, 0, 27, simtest.Recompiled},
		pin{"ingestor", cell{Algorithm: "vnmn"}, 1, 497, simtest.Recompiled})
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
