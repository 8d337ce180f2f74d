package exec

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// TestConcurrentStress interleaves Write, Read, batch and bare-advance Apply on
// one shared engine from many goroutines. Run with -race it checks the
// snapshot/atomic synchronization of the whole public surface; afterwards a
// deterministic write round checks the engine still answers correctly.
func TestConcurrentStress(t *testing.T) {
	for _, a := range []agg.Aggregate{agg.Sum{}, agg.Max{}} {
		ag := paperAG()
		res, err := construct.Build(construct.AlgVNMA, ag, construct.Config{Iterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		decide(t, res.Overlay, "optimal")
		e, err := New(res.Overlay, a, agg.NewTimeWindow(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for gr := 0; gr < 8; gr++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				batch := make([]graph.Event, 0, 16)
				for i := 0; i < 300; i++ {
					v := graph.NodeID(rng.Intn(7))
					switch rng.Intn(4) {
					case 0:
						_ = e.Write(v, 1, int64(i))
					case 1:
						_, _ = e.Read(v)
					case 2:
						batch = batch[:0]
						for j := 0; j < 16; j++ {
							batch = append(batch, graph.Event{
								Kind: graph.ContentWrite, Node: graph.NodeID(rng.Intn(7)),
								Value: 1, TS: int64(i),
							})
						}
						e.Apply(batch, graph.NoAdvance)
					case 3:
						e.Apply(nil, 0) // expires nothing (huge window) but walks the path
					}
				}
			}(int64(gr))
		}
		wg.Wait()
		// Quiesce deterministically: shrink every window to exactly one
		// value per node via expiry, then overwrite.
		e.Apply(nil, 1<<31)
		for v := graph.NodeID(0); v < 7; v++ {
			if err := e.Write(v, 1, 1<<31); err != nil {
				t.Fatal(err)
			}
		}
		// Every reader now aggregates 1s, one per input.
		sums := map[graph.NodeID]int64{0: 4, 1: 3, 2: 5, 3: 5, 4: 4, 5: 5, 6: 6}
		for v, n := range sums {
			got, err := e.Read(v)
			if err != nil {
				t.Fatal(err)
			}
			want := n
			if (a == agg.Max{}) {
				want = 1
			}
			if !got.Valid || got.Scalar != want {
				t.Fatalf("%s: read(%d) = %v, want %d", a.Name(), v, got, want)
			}
		}
	}
}

// TestRebuildMidStream grows the overlay while reads and writes on the
// existing nodes keep flowing. The engine publishes new state by atomic
// snapshot swap, so traffic must stay race-free and correct throughout:
// in-flight reads complete on the snapshot they started on, writes wait for
// the install step only, and operations after the install see the new writer
// immediately.
func TestRebuildMidStream(t *testing.T) {
	ag := paperAG()
	ov := construct.Baseline(ag)
	decide(t, ov, "push")
	e, err := New(ov, agg.Sum{}, agg.NewTupleWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for gr := 0; gr < 4; gr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; !stop.Load(); i++ {
				v := graph.NodeID(rng.Intn(7))
				if rng.Intn(2) == 0 {
					_ = e.Write(v, 1, int64(i))
				} else {
					_, _ = e.Read(v)
				}
			}
		}(int64(gr))
	}
	// Grow the overlay mid-stream: a fresh writer 99 feeding a fresh
	// reader 100, push-annotated. Only this goroutine touches the overlay;
	// the engine's hot paths run on flattened snapshots and never read it.
	w := ov.AddWriter(99)
	r := ov.AddReader(0, 100)
	if err := ov.AddEdge(w, r, false); err != nil {
		t.Fatal(err)
	}
	ov.Node(r).Dec = overlay.Push
	if err := e.Rebuild(ov, nil); err != nil {
		t.Fatal(err)
	}
	// The new nodes are writable/readable right after the install.
	if err := e.Write(99, 7, 1); err != nil {
		t.Fatal(err)
	}
	got, err := e.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Valid || got.Scalar != 7 {
		t.Fatalf("read(100) after grow = %v, want 7", got)
	}
	stop.Store(true)
	wg.Wait()
	// Old nodes still work end-to-end after the swap.
	for v := graph.NodeID(0); v < 7; v++ {
		if err := e.Write(v, 1, 10000); err != nil {
			t.Fatal(err)
		}
	}
	got, err = e.Read(6)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 6 {
		t.Fatalf("read(6) after grow = %v, want 6", got)
	}
}

// TestRebuildPreservesWindows checks what a Rebuild on the installed overlay
// carries over by slot while initializing state for new slots: window
// contents, expiry-index membership and the observation counters — which the
// seed walk must not advance either.
func TestRebuildPreservesWindows(t *testing.T) {
	ag := paperAG()
	ov := construct.Baseline(ag)
	decide(t, ov, "push")
	e, err := New(ov, agg.Sum{}, agg.NewTimeWindow(100))
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Write(2, 5, 0)
	_ = e.Write(2, 6, 1)
	if _, err := e.Read(0); err != nil {
		t.Fatal(err)
	}
	w := ov.AddWriter(50)
	r := ov.AddReader(0, 51)
	if err := ov.AddEdge(w, r, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Rebuild(ov, nil); err != nil {
		t.Fatal(err)
	}
	pushes, pulls := e.Observations()
	if got := pushes[ov.Writer(2)]; got != 2 {
		t.Fatalf("writer 2 shows %v pushes after the install, want its 2 writes", got)
	}
	if got := pushes[ov.Reader(0, 0)]; got != 2 {
		t.Fatalf("reader 0 shows %v pushes after the install, want 2 (the seed walk counts as none)", got)
	}
	if got := pulls[ov.Reader(0, 0)]; got != 1 {
		t.Fatalf("reader 0 shows %v pulls after the install, want its 1 read", got)
	}
	// Window contents for writer 2 survived: reader 0 (inputs {2,3,4,5})
	// still sees 5+6 = 11.
	got, err := e.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 11 {
		t.Fatalf("read(0) after grow = %v, want 11", got)
	}
	if n := e.ExpiryIndexSize(); n != 1 {
		t.Fatalf("expiry index holds %d writers after the install, want writer 2", n)
	}
	e.Apply(nil, 101) // both values (ts 0 and 1) fall due
	if got, _ := e.Read(0); got.Valid {
		t.Fatalf("read(0) after expiry through the carried index = %v, want empty", got)
	}
}
