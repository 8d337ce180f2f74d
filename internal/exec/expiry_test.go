package exec

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// expiryPairs builds two identical time-windowed engines over the paper
// graph — one to drive through the indexed advance, one through
// the full-walk ExpireAllScan reference.
func expiryPair(t *testing.T, T int64) (*Engine, *Engine) {
	t.Helper()
	mk := func() *Engine {
		ov := construct.Baseline(paperAG())
		decide(t, ov, "push")
		e, err := New(ov, agg.Sum{}, agg.NewTimeWindow(T))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return mk(), mk()
}

// compareEngines reads every node on both engines and fails on the first
// disagreement.
func compareEngines(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	for v := graph.NodeID(0); v < 7; v++ {
		got, err1 := a.Read(v)
		want, err2 := b.Read(v)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: node %d: %v / %v", label, v, err1, err2)
		}
		if got.Valid != want.Valid || got.Scalar != want.Scalar {
			t.Fatalf("%s: node %d: heap %+v, scan %+v", label, v, got, want)
		}
	}
}

// TestExpireHeapMatchesScanProperty is the expiry index's differential
// anchor: random interleavings of writes and watermark advances (with
// re-advances of the same watermark, empty advances, and bursts that
// expire many writers at once) must leave the heap-driven engine in
// exactly the state the full-walk reference reaches.
func TestExpireHeapMatchesScanProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		heap, scan := expiryPair(t, 25)
		heapSub, err := heap.Subscribe(64)
		if err != nil {
			t.Fatal(err)
		}
		scanSub, err := scan.Subscribe(64)
		if err != nil {
			t.Fatal(err)
		}
		// compareDeliveries drains what one advance (or one write)
		// delivered on both sides: the same readers, each at most once,
		// with the same value and timestamp — in whatever order.
		compareDeliveries := func(label string) {
			t.Helper()
			got, want := drainByNode(t, label+" (heap)", heapSub), drainByNode(t, label+" (scan)", scanSub)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: heap delivered %v, scan %v", label, got, want)
			}
		}
		ts := int64(0)
		for step := 0; step < 2000; step++ {
			switch rng.Intn(10) {
			case 0: // watermark advance
				wm := ts - int64(rng.Intn(30))
				heap.Apply(nil, wm)
				scan.ExpireAllScan(wm)
				compareEngines(t, "advance", heap, scan)
				compareDeliveries("advance")
			case 1: // repeated advance at the same watermark (idempotence)
				heap.Apply(nil, ts)
				scan.ExpireAllScan(ts)
				compareDeliveries("re-advance, first")
				heap.Apply(nil, ts)
				scan.ExpireAllScan(ts)
				compareEngines(t, "re-advance", heap, scan)
				compareDeliveries("re-advance, second")
			case 2: // time jump so a burst of writers expires at once
				ts += int64(rng.Intn(60))
			default:
				ts += int64(rng.Intn(3))
				v := graph.NodeID(rng.Intn(7))
				val := int64(rng.Intn(100))
				if err := heap.Write(v, val, ts); err != nil {
					t.Fatal(err)
				}
				if err := scan.Write(v, val, ts); err != nil {
					t.Fatal(err)
				}
				compareDeliveries("write")
			}
		}
		heap.Apply(nil, ts)
		scan.ExpireAllScan(ts)
		compareEngines(t, "final", heap, scan)
		compareDeliveries("final")
		if n := heap.ExpiryIndexSize(); n > 7 {
			t.Fatalf("heap holds %d entries for 7 writers; duplicate registrations", n)
		}
	}
}

// drainByNode empties sub's buffer into a per-reader map, failing if one
// drain holds two updates for the same reader (the once-per-advance
// contract) or if the subscription dropped anything.
func drainByNode(t *testing.T, label string, sub *Subscription) map[graph.NodeID]Update {
	t.Helper()
	out := map[graph.NodeID]Update{}
	for {
		select {
		case u := <-sub.Updates():
			if prev, dup := out[u.Node]; dup {
				t.Fatalf("%s: reader %d delivered twice: %+v then %+v", label, u.Node, prev, u)
			}
			out[u.Node] = u
		default:
			if sub.Dropped() != 0 {
				t.Fatalf("%s: %d updates dropped", label, sub.Dropped())
			}
			return out
		}
	}
}

// TestExpireAllOneUpdatePerReaderPerAdvance: an ego whose network holds
// eight writers that all expire on the same watermark advance is finalized
// and delivered once for that advance — stamped with the watermark and
// equal to a Read taken after it — not once per expiring writer.
func TestExpireAllOneUpdatePerReaderPerAdvance(t *testing.T) {
	for _, spec := range []string{"sum", "topk(3)"} {
		for _, scan := range []bool{false, true} {
			a, err := agg.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.NewWithNodes(9)
			for i := 1; i <= 8; i++ {
				if err := g.AddEdge(graph.NodeID(i), 0); err != nil {
					t.Fatal(err)
				}
			}
			ov := construct.Baseline(bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes))
			decide(t, ov, "push")
			eng, err := New(ov, a, agg.NewTimeWindow(10))
			if err != nil {
				t.Fatal(err)
			}
			sub, err := eng.Subscribe(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			var batch []graph.Event
			for round := int64(0); round < 3; round++ { // three values per writer, ts 0..2
				for i := 1; i <= 8; i++ {
					batch = append(batch, graph.Event{Kind: graph.ContentWrite, Node: graph.NodeID(i), Value: int64(i) + round, TS: round})
				}
			}
			eng.Apply(batch, graph.NoAdvance)
			drainByNode(t, "load", sub)
			// Each advance expires one value from every one of the eight
			// writers; the last leaves the windows empty.
			for _, wm := range []int64{10, 11, 12} {
				if scan {
					eng.ExpireAllScan(wm)
				} else {
					eng.Apply(nil, wm)
				}
				got := drainByNode(t, "advance", sub)
				want, err := eng.Read(0)
				if err != nil {
					t.Fatal(err)
				}
				if u, ok := got[0]; len(got) != 1 || !ok || u.TS != wm || !u.Result.Eq(want) {
					t.Fatalf("%s scan=%v advance to %d: delivered %v, want exactly one update {0 %v %d}", spec, scan, wm, got, want, wm)
				}
			}
			// Nothing left to expire: no delivery.
			eng.Apply(nil, 100)
			if got := drainByNode(t, "idle advance", sub); len(got) != 0 {
				t.Fatalf("%s: idle advance delivered %v", spec, got)
			}
			eng.Unsubscribe(sub)
		}
	}
}

// TestApplyClosesTimeWithTheBatch holds a batch applied together with the
// watermark it closes to the same batch followed by a separate advance:
// identical state, and per touched reader exactly one Update where the two
// calls deliver up to two — the value a Read after the call returns, stamped
// with the latest timestamp that reached the reader in either.
func TestApplyClosesTimeWithTheBatch(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		one, two := expiryPair(t, 25)
		oneSub, err := one.Subscribe(64)
		if err != nil {
			t.Fatal(err)
		}
		twoSub, err := two.Subscribe(64)
		if err != nil {
			t.Fatal(err)
		}
		ts := int64(0)
		for step := 0; step < 400; step++ {
			batch := make([]graph.Event, rng.Intn(12))
			for i := range batch {
				ts += int64(rng.Intn(4))
				batch[i] = graph.Event{Kind: graph.ContentWrite, Node: graph.NodeID(rng.Intn(7)), Value: int64(rng.Intn(100)), TS: ts}
			}
			wm := ts - int64(rng.Intn(10))
			if rng.Intn(8) == 0 {
				ts += int64(rng.Intn(60)) // the next batch expires a burst of writers
			}
			one.Apply(batch, wm)
			two.Apply(batch, graph.NoAdvance)
			want := drainByNode(t, "batch", twoSub)
			two.Apply(nil, wm)
			for v, u := range drainByNode(t, "advance", twoSub) {
				// The later call carries the settled value; the stamp is the
				// latest timestamp that reached the reader in either.
				if w, ok := want[v]; ok {
					u.TS = max(u.TS, w.TS)
				}
				want[v] = u
			}
			compareEngines(t, "batch with its advance", one, two)
			if got := drainByNode(t, "batch with its advance", oneSub); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: one Apply delivered %v; the batch and the advance as two calls settle on %v", seed, step, got, want)
			}
		}
	}
}

// TestExpireHeapSaturatedWatermarks drives the index at the int64 edges:
// writes near MinInt64 (where ts-T underflows and the expiry cut must
// saturate instead of wrapping) and near MaxInt64 (where the next-expiry
// deadline ts+T overflows and must saturate to MaxInt64, never
// registering a deadline in the past).
func TestExpireHeapSaturatedWatermarks(t *testing.T) {
	const T = 100
	heap, scan := expiryPair(t, T)
	lo := int64(math.MinInt64) + 3
	hi := int64(math.MaxInt64) - 3
	for i, ts := range []int64{lo, lo + 1, lo + T/2, 0, 1, hi - 1, hi} {
		v := graph.NodeID(i % 7)
		if err := heap.Write(v, 5, ts); err != nil {
			t.Fatal(err)
		}
		if err := scan.Write(v, 5, ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, wm := range []int64{math.MinInt64, lo, lo + T, 0, T, hi, math.MaxInt64} {
		heap.Apply(nil, wm)
		scan.ExpireAllScan(wm)
		compareEngines(t, "saturated", heap, scan)
	}
	// A MaxInt64 advance must terminate even though every surviving
	// deadline saturates to MaxInt64 (pop, re-check, re-register must not
	// spin: re-registered deadlines only ever move forward).
	heap.Apply(nil, math.MaxInt64)
	heap.Apply(nil, math.MaxInt64)
	compareEngines(t, "max-advance", heap, scan)
}

// TestTupleWindowsNeverEnterExpiryHeap is the regression guard for the
// index's zero-cost claim on tuple-windowed engines: count windows report
// no deadline, so writers must never register and watermark advances stay
// a single bucket test.
func TestTupleWindowsNeverEnterExpiryHeap(t *testing.T) {
	ov := construct.Baseline(paperAG())
	decide(t, ov, "push")
	e, err := New(ov, agg.Sum{}, agg.NewTupleWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := e.Write(graph.NodeID(i%7), int64(i), int64(i+1)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			e.Apply(nil, int64(i+1))
		}
	}
	if n := e.ExpiryIndexSize(); n != 0 {
		t.Fatalf("tuple-window engine registered %d expiry entries, want 0", n)
	}
}

// TestExpiryIndexRepopulatesAcrossRecompile checks the index survives the
// engine lifecycle the doc comment promises: entries live across Rebuild
// installs (shared nodeState cells), and a writer whose window empties
// mid-stream re-registers on its next write.
func TestExpiryIndexRepopulatesAcrossRecompile(t *testing.T) {
	heap, scan := expiryPair(t, 10)
	write := func(v graph.NodeID, val, ts int64) {
		t.Helper()
		if err := heap.Write(v, val, ts); err != nil {
			t.Fatal(err)
		}
		if err := scan.Write(v, val, ts); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 7, 5)
	write(1, 9, 6)
	// Expire everything: both writers' windows empty, entries consumed.
	heap.Apply(nil, 100)
	scan.ExpireAllScan(100)
	if n := heap.ExpiryIndexSize(); n != 0 {
		t.Fatalf("index size after draining = %d, want 0", n)
	}
	// Re-write: the empty->non-empty transition must re-register.
	write(0, 3, 200)
	if n := heap.ExpiryIndexSize(); n != 1 {
		t.Fatalf("index size after re-write = %d, want 1", n)
	}
	heap.Apply(nil, 300)
	scan.ExpireAllScan(300)
	compareEngines(t, "re-register", heap, scan)
}

// tally is a test-only sum whose PAOs remember every value ever added to
// them, so a test can tell which nodes a value reached.
type tally struct{}

func (tally) Name() string          { return "tally" }
func (tally) Props() agg.Properties { return agg.Properties{Subtractable: true} }
func (tally) NewPAO() agg.PAO       { return &tallyPAO{seen: map[int64]int{}} }

type tallyPAO struct {
	sum, n int64
	seen   map[int64]int
}

func (p *tallyPAO) AddValue(v int64)    { p.sum, p.n = p.sum+v, p.n+1; p.seen[v]++ }
func (p *tallyPAO) RemoveValue(v int64) { p.sum, p.n = p.sum-v, p.n-1 }
func (p *tallyPAO) Merge(o agg.PAO)     { p.sum, p.n = p.sum+o.(*tallyPAO).sum, p.n+o.(*tallyPAO).n }
func (p *tallyPAO) Unmerge(o agg.PAO)   { p.sum, p.n = p.sum-o.(*tallyPAO).sum, p.n-o.(*tallyPAO).n }
func (p *tallyPAO) Reset()              { p.sum, p.n = 0, 0 }
func (p *tallyPAO) Finalize() agg.Result {
	return agg.Result{Scalar: p.sum, Valid: p.n > 0}
}

// TestAdvanceCancelsWhatItExpires writes, in one Apply, a value so late that
// the batch's own advance expires it: the write and the expiry fold into one
// entry, cancel there, and the value never reaches a node downstream of its
// writer. The writer's window and cell still end where a write followed by
// the full-walk reference leaves them.
func TestAdvanceCancelsWhatItExpires(t *testing.T) {
	const late = 777
	mk := func() *Engine {
		ov := construct.Baseline(paperAG())
		decide(t, ov, "push")
		e, err := New(ov, tally{}, agg.NewTimeWindow(10))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	one, ref := mk(), mk()
	for _, e := range []*Engine{one, ref} {
		e.Write(1, 3, 2)
		e.Write(0, 4, 95)
	}
	one.Apply([]graph.Event{
		{Kind: graph.ContentWrite, Node: 1, Value: late, TS: 5},
		{Kind: graph.ContentWrite, Node: 2, Value: 6, TS: 100},
	}, 100)
	ref.Write(1, late, 5)
	ref.Write(2, 6, 100)
	ref.ExpireAllScan(100)

	st := one.state.Load()
	w1 := st.plan.writer(1)
	if got := st.paos[w1].(*tallyPAO).seen[late]; got != 1 {
		t.Fatalf("writer 1's PAO saw %d late values, want 1", got)
	}
	for i, p := range st.paos {
		if p != nil && st.plan.top.Kind[i] != overlay.WriterNode && p.(*tallyPAO).seen[late] != 0 {
			t.Fatalf("slot %d (%v) saw the value its writer's advance expired in the same Apply", i, st.plan.top.Kind[i])
		}
	}
	windows := func(e *Engine) map[graph.NodeID][]agg.WindowEntry {
		out := map[graph.NodeID][]agg.WindowEntry{}
		e.ExportWindows(func(v graph.NodeID, en []agg.WindowEntry) { out[v] = slices.Clone(en) })
		return out
	}
	if got, want := windows(one), windows(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("windows after one Apply %v, after a write and the scan %v", got, want)
	}
	if got, want := *st.paos[w1].(*tallyPAO), *ref.state.Load().paos[w1].(*tallyPAO); got.sum != want.sum || got.n != want.n {
		t.Fatalf("writer 1's cell %+v, reference %+v", got, want)
	}
	compareEngines(t, "late write expired by its own advance", one, ref)
}
