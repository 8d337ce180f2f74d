package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// batchWriters is the writer count of the hand-built overlays below; data
// graph nodes 0..batchWriters-1 write, 100.. read.
const batchWriters = 8

// batchOverlay hand-builds the two overlay shapes whose closures are more
// than a set of nodes: "neg" routes writers to readers through partials and
// subtracts some of them again over negative edges; "dup" reaches readers
// (and a nested partial) over several paths from the same writer, so
// closure entries repeat. dec annotates every non-writer node, asked in
// topological order.
func batchOverlay(t *testing.T, shape string, dec func() overlay.Decision) *overlay.Overlay {
	t.Helper()
	ov := overlay.New(0)
	var w [batchWriters]overlay.NodeRef
	for i := range w {
		w[i] = ov.AddWriter(graph.NodeID(i))
	}
	edge := func(from, to overlay.NodeRef, neg bool) {
		t.Helper()
		if err := ov.AddEdge(from, to, neg); err != nil {
			t.Fatal(err)
		}
	}
	p, q := ov.AddPartial(), ov.AddPartial()
	var r [5]overlay.NodeRef
	for i := range r {
		r[i] = ov.AddReader(0, graph.NodeID(100+i))
	}
	switch shape {
	case "neg":
		for i := range w {
			edge(w[i], p, false)
			if i < batchWriters/2 {
				edge(w[i], q, false)
			}
		}
		edge(p, r[0], false)
		edge(p, r[1], false) // r1 = p - w0 - w1
		edge(w[0], r[1], true)
		edge(w[1], r[1], true)
		edge(q, r[2], false)
		edge(p, r[3], false) // r3 = p - q
		edge(q, r[3], true)
		edge(w[0], r[4], false)
	case "dup":
		for i := 0; i < 5; i++ {
			edge(w[i], p, false)
		}
		for i := 3; i < batchWriters; i++ {
			edge(w[i], q, false)
		}
		edge(p, r[0], false) // w3, w4 arrive twice
		edge(q, r[0], false)
		edge(p, r[1], false) // w0 arrives twice
		edge(w[0], r[1], false)
		pq := ov.AddPartial() // nested: p + q, then p again at the reader
		edge(p, pq, false)
		edge(q, pq, false)
		edge(pq, r[2], false)
		edge(p, r[2], false)
		edge(q, r[3], false)
		edge(w[7], r[4], false)
	default:
		t.Fatalf("unknown overlay shape %q", shape)
	}
	return decideEach(t, ov, dec)
}

// decideEach annotates every non-writer node of ov with dec, asked in
// topological order so "all inputs of a push node are push" can be enforced
// on the fly: a node whose inputs are not all push stays pull whatever dec
// says.
func decideEach(t *testing.T, ov *overlay.Overlay, dec func() overlay.Decision) *overlay.Overlay {
	t.Helper()
	order, err := ov.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range order {
		n := ov.Node(ref)
		if n.Kind == overlay.WriterNode {
			n.Dec = overlay.Push
			continue
		}
		n.Dec = dec()
		for _, in := range n.In {
			if ov.Node(in.Peer).Dec != overlay.Push {
				n.Dec = overlay.Pull
			}
		}
	}
	return ov
}

func allPush() overlay.Decision { return overlay.Push }

// hotBatch draws 256 content writes whose writers are Zipf-skewed — the
// hottest writer holds at least 32 of them — with values from a domain of
// six, so a window of a few tuples admits and evicts the same value inside
// one batch all the time. ts advances by one per event.
func hotBatch(rng *rand.Rand, ts *int64) []graph.Event {
	zipf := rand.NewZipf(rng, 1.2, 1, batchWriters-1)
	hot := graph.NodeID(rng.Intn(batchWriters))
	evs := make([]graph.Event, 256)
	for i := range evs {
		v := graph.NodeID((uint64(hot) + zipf.Uint64()) % batchWriters)
		if i < 32 {
			v = hot
		}
		*ts++
		evs[i] = graph.Event{Kind: graph.ContentWrite, Node: v, Value: int64(rng.Intn(6)), TS: *ts}
	}
	rng.Shuffle(len(evs), func(i, j int) {
		evs[i].Node, evs[j].Node = evs[j].Node, evs[i].Node
	})
	return evs
}

// pushState exports every push node's partial state in wire form, indexed
// by slot (pull and dead slots stay zero).
func pushState(t *testing.T, e *Engine) []agg.WirePAO {
	t.Helper()
	st := e.state.Load()
	top := st.plan.top
	out := make([]agg.WirePAO, top.N)
	for i := 0; i < top.N; i++ {
		if top.Dead[i] || top.Dec[i] != overlay.Push {
			continue
		}
		if e.scalar != nil {
			out[i] = agg.WirePAO{Sum: st.scalars[i].sum.Load(), N: st.scalars[i].cnt.Load()}
			continue
		}
		w, ok := agg.Export(st.paos[i])
		if !ok {
			t.Fatalf("slot %d: PAO not wireable", i)
		}
		out[i] = w
	}
	return out
}

// TestWriteBatchCoalescedMatchesPerEvent is the writer-major batch path's
// differential anchor: an engine fed hot-writer batches through Apply
// must end every batch in exactly the state of a twin fed the same events
// one Write at a time — every read, every push node's partial state, the
// write/read counts and, per node, the observation counters (which count
// logical writes, not closure walks).
func TestWriteBatchCoalescedMatchesPerEvent(t *testing.T) {
	seeds := int64(200)
	if testing.Short() || raceEnabled {
		seeds = 20 // one goroutine: nothing here for the race detector to find
	}
	aggs := []string{"sum", "count", "avg", "max", "min", "topk(3)", "distinct"}
	windows := map[string]func() agg.Window{
		"tuple1": func() agg.Window { return agg.NewTupleWindow(1) },
		"tuple4": func() agg.Window { return agg.NewTupleWindow(4) },
		"time40": func() agg.Window { return agg.NewTimeWindow(40) },
	}
	for _, shape := range []string{"neg", "dup"} {
		for _, spec := range aggs {
			for wname, window := range windows {
				t.Run(fmt.Sprintf("%s/%s/%s", shape, spec, wname), func(t *testing.T) {
					a, err := agg.Parse(spec)
					if err != nil {
						t.Fatal(err)
					}
					if _, sel := a.(agg.SelectAggregate); sel && shape == "neg" {
						// A selection has no inverse: the engine refuses
						// the overlay (TestSelectRefusesNegativeEdges).
						if _, err := New(batchOverlay(t, shape, allPush), a, window()); err == nil {
							t.Fatalf("New accepted %s over negative edges", spec)
						}
						return
					}
					for seed := int64(1); seed <= seeds; seed++ {
						rng := rand.New(rand.NewSource(seed))
						// Odd seeds run all-push, even ones a random
						// (consistent) mix, so pull reads over a lagging
						// closure are compared too.
						dec := allPush
						if seed%2 == 0 {
							mix := rand.New(rand.NewSource(seed))
							dec = func() overlay.Decision {
								if mix.Intn(3) == 0 {
									return overlay.Pull
								}
								return overlay.Push
							}
						}
						ovB := batchOverlay(t, shape, dec)
						ovW := ovB.Clone()
						batched, err := New(ovB, a, window())
						if err != nil {
							t.Fatal(err)
						}
						single, err := New(ovW, a, window())
						if err != nil {
							t.Fatal(err)
						}
						var ts int64
						for b := 0; b < 3; b++ {
							evs := hotBatch(rng, &ts)
							batched.Apply(evs, graph.NoAdvance)
							for _, ev := range evs {
								if err := single.Write(ev.Node, ev.Value, ev.TS); err != nil {
									t.Fatal(err)
								}
							}
							if b == 1 {
								batched.Apply(nil, ts-10)
								single.Apply(nil, ts-10)
							}
							label := fmt.Sprintf("seed %d batch %d", seed, b)
							for v := graph.NodeID(100); v < 105; v++ {
								got, err1 := batched.Read(v)
								want, err2 := single.Read(v)
								if err1 != nil || err2 != nil {
									t.Fatalf("%s: read(%d): %v / %v", label, v, err1, err2)
								}
								if !got.Eq(want) {
									t.Fatalf("%s: read(%d) = %v batched, %v per event", label, v, got, want)
								}
							}
							if got, want := pushState(t, batched), pushState(t, single); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: push state diverged\nbatched   %+v\nper event %+v", label, got, want)
							}
							bw, br := batched.Counts()
							sw, sr := single.Counts()
							if bw != sw || br != sr {
								t.Fatalf("%s: counts (%d, %d) batched, (%d, %d) per event", label, bw, br, sw, sr)
							}
							bPush, bPull := batched.Observations()
							sPush, sPull := single.Observations()
							if !reflect.DeepEqual(bPush, sPush) || !reflect.DeepEqual(bPull, sPull) {
								t.Fatalf("%s: observations diverged\nbatched   %v %v\nper event %v %v", label, bPush, bPull, sPush, sPull)
							}
						}
					}
				})
			}
		}
	}
}

// TestCancelCommon pins the multiset cancellation on its own.
func TestCancelCommon(t *testing.T) {
	for _, tc := range []struct{ add, rem, wantAdd, wantRem []int64 }{
		{nil, nil, nil, nil},
		{[]int64{3}, nil, []int64{3}, nil},
		{nil, []int64{3}, nil, []int64{3}},
		{[]int64{3, 1, 3, 2}, []int64{3, 4, 1}, []int64{2, 3}, []int64{4}},
		{[]int64{5, 5, 5}, []int64{5, 5, 5}, []int64{}, []int64{}},
		{[]int64{1, 2}, []int64{3, 4}, []int64{1, 2}, []int64{3, 4}},
		{[]int64{7, 7}, []int64{7, 7, 7, 0}, []int64{}, []int64{0, 7}},
	} {
		add, rem := cancelCommon(append([]int64(nil), tc.add...), append([]int64(nil), tc.rem...))
		if !reflect.DeepEqual(add, tc.wantAdd) || !reflect.DeepEqual(rem, tc.wantRem) {
			t.Errorf("cancelCommon(%v, %v) = %v, %v; want %v, %v", tc.add, tc.rem, add, rem, tc.wantAdd, tc.wantRem)
		}
	}
}

// TestWriteBatchCoalescingUnderRebuild races batches against the snapshot
// transition (run it under -race). Each trial races one Rebuild on the
// installed overlay (two readers flip between push and pull) against
// goroutines applying hot-writer batches, so a batch either applied wholly to
// the previous snapshot — its writes are in the windows the install seeds
// from — or wholly to the new one; then it quiesces and compares every
// reader with a brute-force fold of the writer windows. One install per
// trial, because an install rebuilds push state from the windows and would
// heal what an earlier one broke: a folded delta lost or applied twice must
// still be there when the trial checks.
func TestWriteBatchCoalescingUnderRebuild(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for _, spec := range []string{"sum", "topk(3)"} {
		for _, shape := range []string{"neg", "dup"} {
			t.Run(spec+"/"+shape, func(t *testing.T) {
				a, err := agg.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				ov := batchOverlay(t, shape, allPush)
				e, err := New(ov, a, agg.NewTupleWindow(4))
				if err != nil {
					t.Fatal(err)
				}
				sub, err := e.Subscribe(8)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Unsubscribe(sub)
				flips := []overlay.NodeRef{ov.Reader(0, 100), ov.Reader(0, 103)}
				// Each sender owns two writers and mostly writes one of
				// them, so every batch folds dozens of writes per entry.
				const senders = batchWriters / 2
				rngs := make([]*rand.Rand, senders)
				for g := range rngs {
					rngs[g] = rand.New(rand.NewSource(int64(g + 1)))
				}
				var ts atomic.Int64
				for trial := 0; trial < trials; trial++ {
					var wg sync.WaitGroup
					var start atomic.Bool
					for g := 0; g < senders; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							rng := rngs[g]
							evs := make([]graph.Event, 256)
							for !start.Load() {
								runtime.Gosched()
							}
							for round := 0; round < 2; round++ {
								for i := range evs {
									v := graph.NodeID(2 * g)
									if rng.Intn(8) == 0 {
										v++
									}
									evs[i] = graph.Event{Kind: graph.ContentWrite, Node: v, Value: int64(rng.Intn(6)), TS: ts.Add(1)}
								}
								e.Apply(evs, graph.NoAdvance)
							}
						}(g)
					}
					for _, f := range flips {
						if trial%2 == 0 {
							ov.Node(f).Dec = overlay.Pull
						} else {
							ov.Node(f).Dec = overlay.Push
						}
					}
					start.Store(true)
					if err := e.Rebuild(ov, agg.NewTupleWindow(4), nil); err != nil {
						t.Fatal(err)
					}
					wg.Wait()
					checkAgainstWindows(t, e, a, fmt.Sprintf("trial %d", trial))
				}
			})
		}
	}
}

// checkAgainstWindows compares every reader of a quiesced engine with a
// brute-force fold of the writer windows through the overlay's signed
// paths.
func checkAgainstWindows(t *testing.T, e *Engine, a agg.Aggregate, label string) {
	t.Helper()
	st := e.state.Load()
	top := st.plan.top
	for v := graph.NodeID(100); v < 105; v++ {
		want := a.NewPAO()
		var fold func(ref overlay.NodeRef, neg bool)
		fold = func(ref overlay.NodeRef, neg bool) {
			if top.Kind[ref] == overlay.WriterNode {
				for _, en := range st.windows[ref].Snapshot(nil) {
					if neg {
						want.RemoveValue(en.V)
					} else {
						want.AddValue(en.V)
					}
				}
				return
			}
			for _, pe := range top.InEdges(ref) {
				src, n := overlay.UnpackRef(pe)
				fold(src, neg != n)
			}
		}
		fold(top.Reader(0, v), false)
		got, err := e.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Eq(want.Finalize()) {
			t.Fatalf("%s: read(%d) = %v, brute force over the windows says %v", label, v, got, want.Finalize())
		}
	}
}

// TestWriteBatchSteadyStateAllocs guards the batch path's allocation
// contract: once the pooled accumulator and collector have seen the batch
// shape, Apply allocates nothing, with and without subscribers, in
// both state modes. (A subscribed TOP-K necessarily allocates the answer
// list each delivered Update carries away, so the subscribed PAO-mode case
// is MAX.)
func TestWriteBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, spec := range []string{"sum", "max", "topk(3)"} {
		for _, subscribed := range []bool{false, true} {
			if subscribed && spec == "topk(3)" {
				continue
			}
			a, err := agg.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(batchOverlay(t, "dup", allPush), a, agg.NewTupleWindow(4))
			if err != nil {
				t.Fatal(err)
			}
			if subscribed {
				sub, err := e.Subscribe(4)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Unsubscribe(sub)
			}
			var ts int64
			evs := hotBatch(rand.New(rand.NewSource(1)), &ts)
			for i := 0; i < 4; i++ {
				e.Apply(evs, graph.NoAdvance)
			}
			if n := testing.AllocsPerRun(50, func() { e.Apply(evs, graph.NoAdvance) }); n != 0 {
				t.Errorf("%s subscribed=%v: Apply allocates %.1f objects per batch in steady state, want 0", spec, subscribed, n)
			}
		}
	}
}
