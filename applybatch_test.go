package eagr

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// batchOracle is a pair of identically seeded sessions: one ingests through
// ApplyBatch in caller-chosen chunks, the other replays the same events one
// at a time through the sequential mutators (the oracle). Both host the
// same query set; compare() asserts every query agrees on every node.
type batchOracle struct {
	t             *testing.T
	batch, oracle *Session
	bQs, oQs      []*Query
	nodes         int
}

func newBatchOracle(t *testing.T, nodes int, specs []QuerySpec, opts Options) *batchOracle {
	t.Helper()
	mk := func() (*Session, []*Query) {
		sess, err := Open(doubleRing(nodes), opts)
		if err != nil {
			t.Fatal(err)
		}
		return sess, registerAll(t, sess, specs)
	}
	bo := &batchOracle{t: t, nodes: nodes}
	bo.batch, bo.bQs = mk()
	bo.oracle, bo.oQs = mk()
	return bo
}

// applySequential replays one event through the oracle session's
// one-at-a-time mutators.
func (bo *batchOracle) applySequential(ev Event) { applyByMutator(bo.oracle, ev) }

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

func (bo *batchOracle) run(events []Event, chunk int) {
	bo.t.Helper()
	for off := 0; off < len(events); off += chunk {
		end := min(off+chunk, len(events))
		_ = bo.batch.ApplyBatch(events[off:end])
	}
	for _, ev := range events {
		bo.applySequential(ev)
	}
}

// compare reads every query at every node on both sessions and fails on
// the first mismatch. Dead nodes must agree on ErrUnknownNode.
func (bo *batchOracle) compare(label string) {
	bo.t.Helper()
	for qi := range bo.bQs {
		for v := 0; v < bo.nodes; v++ {
			got, gotErr := bo.bQs[qi].Read(NodeID(v))
			want, wantErr := bo.oQs[qi].Read(NodeID(v))
			if (gotErr != nil) != (wantErr != nil) {
				bo.t.Fatalf("%s: query %d node %d: err %v vs oracle %v", label, qi, v, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrUnknownNode) {
					bo.t.Fatalf("%s: query %d node %d: unexpected error %v", label, qi, v, gotErr)
				}
				continue
			}
			if got.Valid != want.Valid || got.Scalar != want.Scalar {
				bo.t.Fatalf("%s: query %d node %d: got %+v, oracle %+v", label, qi, v, got, want)
			}
		}
	}
}

// mixedStream generates a random interleaving of content writes and
// structural churn over ~nodes ids. Structural events toggle edges
// deterministically (add absent, remove present) and occasionally remove a
// node, so most events apply cleanly on both sides; invalid events are
// deliberately left in (both sides must skip them identically).
func mixedStream(rng *rand.Rand, nodes, n int, structEvery int) []Event {
	var events []Event
	for i := 0; i < n; i++ {
		ts := int64(i)
		if structEvery > 0 && rng.Intn(structEvery) == 0 {
			u := NodeID(rng.Intn(nodes))
			v := NodeID(rng.Intn(nodes))
			switch rng.Intn(5) {
			case 0:
				events = append(events, NewEdgeRemove(u, v, ts))
			case 1:
				events = append(events, NewNodeRemove(u, ts))
			case 2:
				events = append(events, NewNodeAdd(ts))
			default:
				events = append(events, NewEdgeAdd(u, v, ts))
			}
			continue
		}
		events = append(events, NewWrite(NodeID(rng.Intn(nodes)), int64(rng.Intn(100)), ts))
	}
	return events
}

// entryPoint is one public way of getting a stream into a session. Every
// one of them is a view of Session.apply, so each must leave the session in
// the state a brute-force recompute of the same stream predicts.
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
			for off := 0; off < len(events); off += chunk {
				_ = s.ApplyBatch(events[off:min(off+chunk, len(events))])
			}
		}})
	}
	eps = append(eps, entryPoint{"Ingestor", func(t *testing.T, s *Session, events []Event) {
		ing, err := s.Ingest(IngestOptions{BatchSize: 32, QueueDepth: 4, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := ing.SendEvents(events); err != nil || n != len(events) {
			t.Fatalf("SendEvents = %d, %v", n, err)
		}
		_ = ing.Close() // surfaces the stream's deliberately-invalid events
	}})
	return eps
}

// entryPointSpecs are tuple-window queries only: their answer depends on
// the stream alone, not on when a watermark expired what.
var entryPointSpecs = []QuerySpec{
	{Aggregate: "sum", WindowTuples: 3},
	{Aggregate: "count"},
	{Aggregate: "max", WindowTuples: 2},
}

// doubleRing is the graph the batch oracles start from: node i hears from
// i+1 and i+3.
func doubleRing(nodes int) *Graph {
	g := NewGraph(nodes)
	for i := 0; i < nodes; i++ {
		_ = g.AddEdge(NodeID((i+1)%nodes), NodeID(i))
		_ = g.AddEdge(NodeID((i+3)%nodes), NodeID(i))
	}
	return g
}

// entryPointStream is the seeded mixed stream, with timestamps from 1 (an
// Ingestor would wall-clock stamp a zero).
func entryPointStream(seed int64, nodes int) []Event {
	events := mixedStream(rand.New(rand.NewSource(seed)), nodes, 1500, 6)
	for i := range events {
		events[i].TS++
	}
	return events
}

// bruteModel is the reference the entry points are checked against: its own
// copy of the graph, mutated by the stream's structural events (invalid
// ones skipped, as every entry point skips them), plus each live node's raw
// content stream. A read is recomputed from scratch.
type bruteModel struct {
	g    *Graph
	vals map[NodeID][]int64
}

func newBruteModel(g *Graph, events []Event) *bruteModel {
	m := &bruteModel{g: g, vals: map[NodeID][]int64{}}
	for _, ev := range events {
		switch ev.Kind {
		case graph.ContentWrite:
			if g.Alive(ev.Node) {
				m.vals[ev.Node] = append(m.vals[ev.Node], ev.Value)
			}
		case graph.EdgeAdd:
			_ = g.AddEdge(ev.Node, ev.Peer)
		case graph.EdgeRemove:
			_ = g.RemoveEdge(ev.Node, ev.Peer)
		case graph.NodeAdd:
			g.AddNode()
		case graph.NodeRemove:
			if g.RemoveNode(ev.Node) == nil {
				delete(m.vals, ev.Node) // a reused id starts a fresh stream
			}
		}
	}
	return m
}

// read recomputes spec at v: the aggregate over the last WindowTuples
// values of each in-neighbor.
func (m *bruteModel) read(spec QuerySpec, v NodeID) Result {
	c := max(spec.WindowTuples, 1)
	var sum, n, top int64
	for _, u := range m.g.In(v) {
		vals := m.vals[u]
		for _, x := range vals[max(0, len(vals)-c):] {
			if n == 0 || x > top {
				top = x
			}
			sum += x
			n++
		}
	}
	switch spec.Aggregate {
	case "count":
		return Result{Scalar: n, Valid: true}
	case "max":
		return Result{Scalar: top, Valid: n > 0}
	default:
		return Result{Scalar: sum, Valid: n > 0}
	}
}

// check reads every query at every node id the model ever allocated: live
// nodes must equal the recompute, dead ones must report ErrUnknownNode.
func (m *bruteModel) check(t *testing.T, label string, qs []*Query) {
	t.Helper()
	for _, q := range qs {
		for v := NodeID(0); int(v) < m.g.MaxID(); v++ {
			got, err := q.Read(v)
			if !m.g.Alive(v) {
				if !errors.Is(err, ErrUnknownNode) {
					t.Fatalf("%s: %s at dead node %d: got %+v, %v; want ErrUnknownNode", label, q.Spec().Aggregate, v, got, err)
				}
				continue
			}
			want := m.read(q.Spec(), v)
			if err != nil || got.Valid != want.Valid || (want.Valid && got.Scalar != want.Scalar) {
				t.Fatalf("%s: %s at node %d: got %+v, %v; brute force %+v", label, q.Spec().Aggregate, v, got, err, want)
			}
		}
	}
}

// TestApplyBatchMatchesSequentialOracle is the write spine's correctness
// anchor: one seeded mixed content/structural stream driven through EVERY
// public entry point — the single-event mutators, ApplyBatch in
// several chunkings (structural runs coalesced into one repair per query),
// ApplyBatchNodes, and an Ingestor — must leave every query reading
// exactly what a brute-force recompute over the final graph and content
// predicts. The maintainable IOB overlay keeps window state across repairs,
// so equality is exact.
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
				events := entryPointStream(seed, nodes)
				ep.drive(t, sess, events)
				newBruteModel(doubleRing(nodes), events).check(t, fmt.Sprintf("seed %d", seed), qs)
			}
		})
	}
}

// TestApplyBatchMatchesOracleMultiHop exercises the coalesced repair under
// 2-hop neighborhoods, where one edge event touches many readers and
// several events in a run can overlap on the same readers.
func TestApplyBatchMatchesOracleMultiHop(t *testing.T) {
	specs := []QuerySpec{
		{Aggregate: "sum"},
		{Aggregate: "sum", Hops: 2},
	}
	rng := rand.New(rand.NewSource(7))
	bo := newBatchOracle(t, 32, specs, Options{Algorithm: "iob"})
	events := mixedStream(rng, 32, 800, 4)
	bo.run(events, 32)
	bo.compare("2hop")
}

// TestApplyBatchStructuralBursts forces long all-structural runs (the case
// the coalescing targets) with interleaved verification points.
func TestApplyBatchStructuralBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bo := newBatchOracle(t, 40, []QuerySpec{{Aggregate: "sum", WindowTuples: 4}}, Options{Algorithm: "iob"})
	for round := 0; round < 10; round++ {
		var events []Event
		for i := 0; i < 60; i++ { // content prefix
			events = append(events, NewWrite(NodeID(rng.Intn(40)), int64(rng.Intn(50)), int64(round*1000+i)))
		}
		events = append(events, mixedStream(rng, 40, 40, 1)...) // structural burst
		bo.run(events, len(events))
		bo.compare("burst")
	}
}

// TestApplyBatchRecompilePath runs the oracle comparison on a
// non-maintainable overlay (VNM_N with negative edges): every structural
// run must fall back to exactly one recompile, and since BOTH sides lose
// window state at recompile points that fall at the same stream positions
// only when runs are single events, we use chunk=1 so the comparison stays
// exact.
func TestApplyBatchRecompilePath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bo := newBatchOracle(t, 24, []QuerySpec{{Aggregate: "sum"}}, Options{Algorithm: "vnmn"})
	events := mixedStream(rng, 24, 300, 8)
	bo.run(events, 1)
	bo.compare("recompile")
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
