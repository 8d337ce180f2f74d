package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// evens is a user aggregate the engine has no kernel of its own for: the
// even values of positive count, ascending, with no list at all when there
// are none. Its Finalize allocates and ignores any buffer, and a valid answer
// may carry a nil list.
type evens struct{}

func (evens) Name() string          { return "evens" }
func (evens) Props() agg.Properties { return agg.Properties{Subtractable: true} }
func (evens) NewPAO() agg.PAO       { return &evensPAO{c: map[int64]int64{}} }

type evensPAO struct{ c map[int64]int64 }

func (p *evensPAO) add(v, d int64) {
	if p.c[v] += d; p.c[v] == 0 {
		delete(p.c, v)
	}
}

func (p *evensPAO) fold(o agg.PAO, sign int64) {
	for v, c := range o.(*evensPAO).c {
		p.add(v, sign*c)
	}
}

func (p *evensPAO) AddValue(v int64)    { p.add(v, 1) }
func (p *evensPAO) RemoveValue(v int64) { p.add(v, -1) }
func (p *evensPAO) Merge(o agg.PAO)     { p.fold(o, 1) }
func (p *evensPAO) Unmerge(o agg.PAO)   { p.fold(o, -1) }
func (p *evensPAO) Reset()              { clear(p.c) }

func (p *evensPAO) Finalize() agg.Result {
	var l []int64
	for v, c := range p.c {
		if c > 0 && v%2 == 0 {
			l = append(l, v)
		}
	}
	slices.Sort(l)
	return agg.Result{List: l, Valid: true}
}

// memoCheck reads every reader of a quiesced engine through Read and then
// ReadInto into a retained result, and holds both to ReadRecompute — the
// merge kernel with the memo bypassed — nil and empty lists included. On a
// pull reader the two reads are two memo lookups and the second, with
// nothing written in between, must hit.
type memoCheck struct {
	res, ref agg.Result // retained results of ReadInto and of the reference
	lookups  int        // memo lookups expected so far
}

func (mc *memoCheck) compare(t *testing.T, e *Engine, label string) {
	t.Helper()
	top := e.Topology()
	for v := graph.NodeID(100); v < 105; v++ {
		h0, m0 := e.PullMemoStats()
		got, err1 := e.Read(v)
		want, err2 := e.ReadRecompute(v, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: read(%d): %v / %v", label, v, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read(%d) = %#v through the memo, %#v recomputed", label, v, got, want)
		}
		err1 = e.ReadInto(v, &mc.res)
		mc.ref, err2 = e.ReadRecompute(v, mc.ref.List)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: read-into(%d): %v / %v", label, v, err1, err2)
		}
		if !reflect.DeepEqual(mc.res, mc.ref) || !mc.res.Eq(want) {
			t.Fatalf("%s: read-into(%d) = %#v through the memo, %#v recomputed, read says %#v", label, v, mc.res, mc.ref, want)
		}
		h1, m1 := e.PullMemoStats()
		pull := top.Dec[top.Reader(0, v)] != overlay.Push
		if pull {
			mc.lookups += 2
		}
		switch {
		case !pull && (h1 != h0 || m1 != m0):
			t.Fatalf("%s: push reader %d moved the memo counts (%d, %d) -> (%d, %d)", label, v, h0, m0, h1, m1)
		case pull && (h1-h0+m1-m0 != 2 || h1 == h0):
			t.Fatalf("%s: pull reader %d: memo counts (%d, %d) -> (%d, %d), want two lookups, the second a hit", label, v, h0, m0, h1, m1)
		}
	}
}

// TestPullMemoMatchesRecompute is the differential anchor of the pull memo:
// for TOP-K, DISTINCT and a user aggregate over tuple and time windows, on
// duplicate-path, negative-edge and random overlays under random push/pull
// decisions, every read through a memo equals the merge kernel's answer
// computed on the spot — after hot-writer batches, while a removal has
// reached the push state ahead of the addition it cancels, after an advance
// that empties every time window, and across in-place and recompile
// Rebuilds, which start the memos empty and keep the counts.
func TestPullMemoMatchesRecompute(t *testing.T) {
	seeds := int64(30)
	if testing.Short() || raceEnabled {
		seeds = 8
	}
	windows := map[string]func() agg.Window{
		"tuple1": func() agg.Window { return agg.NewTupleWindow(1) },
		"tuple4": func() agg.Window { return agg.NewTupleWindow(4) },
		"time40": func() agg.Window { return agg.NewTimeWindow(40) },
	}
	aggs := map[string]agg.Aggregate{"topk(3)": agg.TopK{K: 3}, "distinct": agg.Distinct{}, "evens": evens{}}
	for name, a := range aggs {
		for wname, window := range windows {
			t.Run(name+"/"+wname, func(t *testing.T) {
				mc := &memoCheck{}
				hits := int64(0)
				for seed := int64(1); seed <= seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					mix := rand.New(rand.NewSource(-seed))
					share := 1 + mix.Intn(3)
					dec := func() overlay.Decision {
						if mix.Intn(share+1) == 0 {
							return overlay.Push
						}
						return overlay.Pull
					}
					shape := func() *overlay.Overlay {
						switch rng.Intn(3) {
						case 0:
							return batchOverlay(t, "dup", dec)
						case 1:
							return batchOverlay(t, "neg", dec)
						}
						return randomDupOverlay(t, rng, dec)
					}
					ov := shape()
					e, err := New(ov, a, window())
					if err != nil {
						t.Fatal(err)
					}
					mc.lookups = 0
					var ts int64
					batch := func(label string) {
						evs := hotBatch(rng, &ts)
						e.Apply(evs[:64+rng.Intn(192)], ts-30)
						mc.compare(t, e, fmt.Sprintf("seed %d %s", seed, label))
					}
					for b := 0; b < 3; b++ {
						batch(fmt.Sprintf("batch %d", b))
					}

					w := graph.NodeID(rng.Intn(batchWriters))
					x := int64(rng.Intn(8))
					st := e.state.Load()
					e.propagate(st, st.plan.writer(w), nil, []int64{x})
					mc.compare(t, e, fmt.Sprintf("seed %d: writer %d's removal of %d ahead of its addition", seed, w, x))
					e.propagate(st, st.plan.writer(w), []int64{x}, nil)
					mc.compare(t, e, fmt.Sprintf("seed %d: writer %d's addition of %d landed", seed, w, x))

					before, _ := e.PullMemoStats()
					decideEach(t, ov, dec)
					if err := e.Rebuild(ov, nil); err != nil {
						t.Fatal(err)
					}
					if h, _ := e.PullMemoStats(); h != before {
						t.Fatalf("seed %d: an in-place Rebuild moved the hit count %d -> %d", seed, before, h)
					}
					mc.compare(t, e, fmt.Sprintf("seed %d after an in-place Rebuild", seed))
					batch("batch after the in-place Rebuild")

					ov = shape()
					if err := e.Rebuild(ov, nil); err != nil {
						t.Fatal(err)
					}
					mc.compare(t, e, fmt.Sprintf("seed %d after a recompile", seed))
					batch("batch after the recompile")

					e.Apply(nil, ts+1000)
					mc.compare(t, e, fmt.Sprintf("seed %d after the final advance", seed))
					h, m := e.PullMemoStats()
					if h+m != int64(mc.lookups) {
						t.Fatalf("seed %d: %d hits + %d misses, want %d lookups", seed, h, m, mc.lookups)
					}
					hits += h
				}
				if hits == 0 {
					t.Fatal("no pull read was answered from a memo")
				}
			})
		}
	}
}

// TestPullMemoUnderConcurrentApply races memo reads of hot pull egos through
// Read and ReadInto against hot-writer batches and a Rebuild — in place,
// flipping a reader between push and pull, or onto a fresh copy of the
// overlay (run it under -race). The pull readers take partials as inputs, so
// an answer goes stale by propagation alone. At every quiescent point each
// reader equals the recomputed answer and a brute-force fold of the windows.
func TestPullMemoUnderConcurrentApply(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	a := agg.TopK{K: 3}
	build := func() *overlay.Overlay {
		ov := batchOverlay(t, "dup", allPush)
		for v := graph.NodeID(100); v < 105; v++ {
			ov.Node(ov.Reader(0, v)).Dec = overlay.Pull
		}
		return ov
	}
	ov := build()
	e, err := New(ov, a, agg.NewTupleWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	var ts atomic.Int64
	mc := &memoCheck{}
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
				for round := 0; round < 3; round++ {
					cur := ts.Add(256)
					evs := hotBatch(rng, &cur)
					e.Apply(evs[:1+rng.Intn(len(evs))], graph.NoAdvance)
					runtime.Gosched()
				}
			}(g)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var res agg.Result
				for !stop.Load() {
					for v := graph.NodeID(100); v < 103; v++ {
						if _, err := e.Read(v); err != nil {
							t.Error(err)
						}
						if err := e.ReadInto(v, &res); err != nil {
							t.Error(err)
						}
					}
					runtime.Gosched()
				}
			}()
		}
		next := ov
		switch trial % 3 {
		case 0:
			next = build()
		case 1:
			ov.Node(ov.Reader(0, 101)).Dec = overlay.Push
		case 2:
			ov.Node(ov.Reader(0, 101)).Dec = overlay.Pull
		}
		start.Store(true)
		if err := e.Rebuild(next, nil); err != nil {
			t.Fatal(err)
		}
		ov = next
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		stop.Store(true)
		wg.Wait()
		label := fmt.Sprintf("trial %d", trial)
		checkAgainstWindows(t, e, a, label)
		mc.compare(t, e, label)
	}
}
