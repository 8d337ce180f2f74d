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

// randomDupOverlay builds a random overlay over batchOverlay's node ids
// (writers 0..batchWriters-1, readers 100..104) whose partials and readers
// draw inputs from writers and earlier partials, so a writer routinely
// reaches a reader over several paths — the duplicate-path shape VNM_D
// builds for MAX and MIN. No edge is negative.
func randomDupOverlay(t *testing.T, rng *rand.Rand, dec func() overlay.Decision) *overlay.Overlay {
	t.Helper()
	ov := overlay.New(0)
	var srcs []overlay.NodeRef
	for i := 0; i < batchWriters; i++ {
		srcs = append(srcs, ov.AddWriter(graph.NodeID(i)))
	}
	feed := func(to overlay.NodeRef, fanIn int) {
		for _, j := range rng.Perm(len(srcs))[:fanIn] {
			if err := ov.AddEdge(srcs[j], to, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 6; i++ {
		p := ov.AddPartial()
		feed(p, 2+rng.Intn(3))
		srcs = append(srcs, p)
	}
	for v := graph.NodeID(100); v < 105; v++ {
		feed(ov.AddReader(0, v), 1+rng.Intn(4))
	}
	return decideEach(t, ov, dec)
}

// pullTwins are two engines over copies of one overlay, fed the same
// events: kern reads through readPull's kernels, ref through the arena
// reference of export_test.go.
type pullTwins struct {
	a         agg.Aggregate
	kern, ref *Engine
	kres      agg.Result // ReadInto's retained results
	rres      agg.Result
	pulled    int // pull-reader comparisons made
}

// both applies f to the two engines.
func (tw *pullTwins) both(f func(e *Engine)) {
	f(tw.kern)
	f(tw.ref)
}

// compare reads every reader of both engines through Read, ReadInto and
// ReadTaggedWire (merged by MergeWires), and then the engines' counts and
// per-node observation counters, which must agree exactly: the kernels visit
// what the arena merge visits.
func (tw *pullTwins) compare(t *testing.T, label string) {
	t.Helper()
	top := tw.kern.Topology()
	for v := graph.NodeID(100); v < 105; v++ {
		if top.Dec[top.Reader(0, v)] == overlay.Pull {
			tw.pulled++
		}
		got, err1 := tw.kern.Read(v)
		want, err2 := tw.ref.ReadArena(v, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: read(%d): %v / %v", label, v, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read(%d) = %+v by kernel, %+v by arena", label, v, got, want)
		}
		err1 = tw.kern.ReadInto(v, &tw.kres)
		tw.rres, err2 = tw.ref.ReadArena(v, tw.rres.List)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: read-into(%d): %v / %v", label, v, err1, err2)
		}
		if !tw.kres.Eq(want) || !tw.rres.Eq(want) {
			t.Fatalf("%s: read-into(%d) = %+v by kernel, %+v by arena, want %+v", label, v, tw.kres, tw.rres, want)
		}
		kw, err1 := tw.kern.ReadTaggedWire(0, v)
		rw, err2 := tw.ref.ReadWireArena(v)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: wire(%d): %v / %v", label, v, err1, err2)
		}
		gotW, err1 := agg.MergeWires(tw.a, []agg.WirePAO{kw})
		wantW, err2 := agg.MergeWires(tw.a, []agg.WirePAO{rw})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: merge wires(%d): %v / %v", label, v, err1, err2)
		}
		if !gotW.Eq(wantW) || !gotW.Eq(want) {
			t.Fatalf("%s: wire(%d) merges to %+v by kernel, %+v by arena, read says %+v", label, v, gotW, wantW, want)
		}
	}
	kw, kr := tw.kern.Counts()
	rw, rr := tw.ref.Counts()
	if kw != rw || kr != rr {
		t.Fatalf("%s: counts (%d, %d) by kernel, (%d, %d) by arena", label, kw, kr, rw, rr)
	}
	kPush, kPull := tw.kern.Observations()
	rPush, rPull := tw.ref.Observations()
	if !reflect.DeepEqual(kPull, rPull) || !reflect.DeepEqual(kPush, rPush) {
		t.Fatalf("%s: observations diverged\nkernel pulls %v pushes %v\narena  pulls %v pushes %v", label, kPull, kPush, rPull, rPush)
	}
}

// TestPullKernelMatchesArena is the differential anchor of the pull kernels:
// on duplicate-path overlays under random push/pull decisions, an engine
// reading through readPull — the selection fold for MAX/MIN, the one-shot
// finalize for TOP-K — answers every Read, ReadInto and wire read exactly as
// a twin reading through the arena merge, and bumps the same observation
// counters at the same nodes. Reads are compared after hot-writer batches,
// while a removal has reached the push state before the addition it
// cancels, and after an advance that empties every time window.
func TestPullKernelMatchesArena(t *testing.T) {
	seeds := int64(60)
	if testing.Short() || raceEnabled {
		seeds = 10
	}
	windows := map[string]func() agg.Window{
		"tuple1": func() agg.Window { return agg.NewTupleWindow(1) },
		"tuple4": func() agg.Window { return agg.NewTupleWindow(4) },
		"time40": func() agg.Window { return agg.NewTimeWindow(40) },
	}
	for _, spec := range []string{"max", "min", "topk(3)"} {
		for wname, window := range windows {
			t.Run(spec+"/"+wname, func(t *testing.T) {
				a, err := agg.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				pulled := 0
				for seed := int64(1); seed <= seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					mix := rand.New(rand.NewSource(-seed))
					share := 1 + mix.Intn(3) // pull one node in 2, 3 or 4
					dec := func() overlay.Decision {
						if mix.Intn(share+1) == 0 {
							return overlay.Pull
						}
						return overlay.Push
					}
					var ov *overlay.Overlay
					if seed%2 == 1 {
						ov = batchOverlay(t, "dup", dec)
					} else {
						ov = randomDupOverlay(t, rng, dec)
					}
					tw := &pullTwins{a: a}
					if tw.kern, err = New(ov, a, window()); err != nil {
						t.Fatal(err)
					}
					if tw.ref, err = New(ov.Clone(), a, window()); err != nil {
						t.Fatal(err)
					}
					var ts int64
					for b := 0; b < 3; b++ {
						evs := hotBatch(rng, &ts)
						tw.both(func(e *Engine) { e.Apply(evs, ts-30) })
						tw.compare(t, fmt.Sprintf("seed %d batch %d", seed, b))
					}

					// A removal that overtook its addition: the push state
					// downstream of w holds a negative count for x until the
					// addition lands.
					w := graph.NodeID(rng.Intn(batchWriters))
					x := int64(rng.Intn(8))
					tw.both(func(e *Engine) {
						st := e.state.Load()
						e.propagate(st, st.plan.writer(w), nil, []int64{x})
					})
					tw.compare(t, fmt.Sprintf("seed %d: writer %d's removal of %d ahead of its addition", seed, w, x))
					tw.both(func(e *Engine) {
						st := e.state.Load()
						e.propagate(st, st.plan.writer(w), []int64{x}, nil)
					})
					tw.compare(t, fmt.Sprintf("seed %d: writer %d's addition of %d landed", seed, w, x))

					tw.both(func(e *Engine) { e.Apply(nil, ts+1000) })
					tw.compare(t, fmt.Sprintf("seed %d after the final advance", seed))
					if wname == "time40" {
						for v := graph.NodeID(100); v < 105; v++ {
							if r, _ := tw.kern.Read(v); r.Valid {
								t.Fatalf("seed %d: read(%d) = %+v after every window emptied", seed, v, r)
							}
						}
					}
					pulled += tw.pulled
				}
				if pulled == 0 {
					t.Fatal("no pull reader was compared")
				}
			})
		}
	}
	t.Run("race", testPullKernelUnderRebuild)
}

// testPullKernelUnderRebuild races pull reads of MAX through every read
// surface against hot-writer batches and a same-overlay Rebuild that flips
// three readers between push and pull (run it under -race). Each trial
// quiesces and checks every reader against a brute-force fold of the
// windows and against the arena reference on the same engine.
func testPullKernelUnderRebuild(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	a := agg.Max{}
	ov := batchOverlay(t, "dup", allPush)
	e, err := New(ov, a, agg.NewTupleWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	flips := []overlay.NodeRef{ov.Reader(0, 100), ov.Reader(0, 101), ov.Reader(0, 102)}
	var ts atomic.Int64
	for trial := 0; trial < trials; trial++ {
		var wg sync.WaitGroup
		var start, stop atomic.Bool
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial*2 + g)))
				for !start.Load() {
					runtime.Gosched()
				}
				for round := 0; round < 2; round++ {
					cur := ts.Add(256)
					evs := hotBatch(rng, &cur)
					e.Apply(evs, graph.NoAdvance)
				}
			}(g)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var res agg.Result
				for !stop.Load() {
					for v := graph.NodeID(100); v < 105; v++ {
						if _, err := e.Read(v); err != nil {
							t.Error(err)
						}
						if err := e.ReadInto(v, &res); err != nil {
							t.Error(err)
						}
						w, err := e.ReadTaggedWire(0, v)
						if err != nil {
							t.Error(err)
						}
						if len(w.Values) != len(w.Freqs) {
							t.Errorf("wire(%d) = %+v", v, w)
						}
					}
					runtime.Gosched()
				}
			}()
		}
		for _, f := range flips {
			if trial%2 == 0 {
				ov.Node(f).Dec = overlay.Pull
			} else {
				ov.Node(f).Dec = overlay.Push
			}
		}
		start.Store(true)
		if err := e.Rebuild(ov, nil); err != nil {
			t.Fatal(err)
		}
		stop.Store(true)
		wg.Wait()
		label := fmt.Sprintf("trial %d", trial)
		checkAgainstWindows(t, e, a, label)
		for v := graph.NodeID(100); v < 105; v++ {
			got, _ := e.Read(v)
			want, _ := e.ReadArena(v, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: read(%d) = %+v by kernel, %+v by arena", label, v, got, want)
			}
		}
	}
}

// TestSelectRefusesNegativeEdges: a selection has no inverse, so New and
// Rebuild refuse a MAX/MIN overlay with a negative edge — and a refused
// Rebuild changes nothing.
func TestSelectRefusesNegativeEdges(t *testing.T) {
	for _, a := range []agg.Aggregate{agg.Max{}, agg.Min{}} {
		if _, err := New(batchOverlay(t, "neg", allPush), a, nil); err == nil {
			t.Fatalf("%s: New accepted an overlay with negative edges", a.Name())
		}
		ov := batchOverlay(t, "dup", allPush)
		e, err := New(ov, a, agg.NewTupleWindow(4))
		if err != nil {
			t.Fatal(err)
		}
		var ts int64
		e.Apply(hotBatch(rand.New(rand.NewSource(1)), &ts), graph.NoAdvance)
		before := make([]agg.Result, 0, 5)
		for v := graph.NodeID(100); v < 105; v++ {
			r, _ := e.Read(v)
			before = append(before, r)
		}
		st, installs := e.state.Load(), e.installs.Load()
		if err := e.Rebuild(batchOverlay(t, "neg", allPush), nil); err == nil {
			t.Fatalf("%s: Rebuild accepted an overlay with negative edges", a.Name())
		}
		if e.state.Load() != st || e.installs.Load() != installs || e.Topology().Lineage() != ov.Lineage() {
			t.Fatalf("%s: a refused Rebuild changed the engine", a.Name())
		}
		for i, v := 0, graph.NodeID(100); v < 105; i, v = i+1, v+1 {
			if r, _ := e.Read(v); !r.Eq(before[i]) {
				t.Fatalf("%s: read(%d) = %v after a refused Rebuild, %v before", a.Name(), v, r, before[i])
			}
		}
	}
}

// TestPullSelectWireMergesExactly: a pull MAX/MIN reader exports its answer
// as one contribution, and merged with another shard's push reader's full
// multiset it gives exactly the single-process read. Writers are split
// between two "shards" by parity; a third engine sees every write.
func TestPullSelectWireMergesExactly(t *testing.T) {
	allPull := func() overlay.Decision { return overlay.Pull }
	for _, a := range []agg.Aggregate{agg.Max{}, agg.Min{}} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pushShard, err := New(batchOverlay(t, "dup", allPush), a, agg.NewTupleWindow(4))
			if err != nil {
				t.Fatal(err)
			}
			pullShard, err := New(batchOverlay(t, "dup", allPull), a, agg.NewTupleWindow(4))
			if err != nil {
				t.Fatal(err)
			}
			single, err := New(batchOverlay(t, "dup", allPush), a, agg.NewTupleWindow(4))
			if err != nil {
				t.Fatal(err)
			}
			var ts int64
			evs := hotBatch(rng, &ts)
			var even, odd []graph.Event
			for _, ev := range evs {
				if ev.Node%2 == 0 {
					even = append(even, ev)
				} else {
					odd = append(odd, ev)
				}
			}
			// Leave one writer silent on both shards now and then, so some
			// reader has an empty side.
			if seed%3 == 0 {
				odd = odd[:0]
			}
			pushShard.Apply(even, graph.NoAdvance)
			pullShard.Apply(odd, graph.NoAdvance)
			single.Apply(append(append([]graph.Event(nil), even...), odd...), graph.NoAdvance)
			for v := graph.NodeID(100); v < 105; v++ {
				pw, err1 := pushShard.ReadTaggedWire(0, v)
				lw, err2 := pullShard.ReadTaggedWire(0, v)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if lw.N > 1 || len(lw.Values) > 1 {
					t.Fatalf("%s seed %d: pull wire(%d) = %+v, want at most one contribution", a.Name(), seed, v, lw)
				}
				got, err := agg.MergeWires(a, []agg.WirePAO{pw, lw})
				if err != nil {
					t.Fatal(err)
				}
				want, _ := single.Read(v)
				if !got.Eq(want) {
					t.Fatalf("%s seed %d: merged wires(%d) = %v, single process reads %v", a.Name(), seed, v, got, want)
				}
			}
		}
	}
}
