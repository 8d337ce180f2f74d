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

// TestRebuildUnderStorm drives the one snapshot transition end to end:
// while goroutines storm the engine with Write, batch and bare-advance
// Apply, and Read traffic, the main goroutine repeatedly flips a reader's push/pull
// decision and installs the result with Rebuild. Under -race this checks the
// gate and the unfenced read path; the reads assert the stale-bound
// invariant throughout (a result may lag, but must never exceed what the
// window shape allows or expose half-seeded state), and a final quiesced
// round asserts exact answers, proving no write was lost or double-applied
// across any install.
func TestRebuildUnderStorm(t *testing.T) {
	// indeg is each reader's input count in the paper's Figure 1 graph.
	indeg := map[graph.NodeID]int64{0: 4, 1: 3, 2: 5, 3: 5, 4: 4, 5: 5, 6: 6}
	cases := []struct {
		name string
		a    agg.Aggregate
		// write returns the value a storm writer ingests.
		write func(rng *rand.Rand) int64
		// check asserts the stale-bound for a mid-storm read at v.
		check func(t *testing.T, v graph.NodeID, res agg.Result)
		// finalValue is written everywhere after the storm; finalWant is
		// the exact expected read per node.
		finalValue int64
		finalWant  func(v graph.NodeID) int64
	}{
		{
			name:  "sum-scalar",
			a:     agg.Sum{},
			write: func(*rand.Rand) int64 { return 1 },
			check: func(t *testing.T, v graph.NodeID, res agg.Result) {
				if res.Scalar < 0 || res.Scalar > indeg[v] {
					t.Errorf("read(%d) = %d outside stale-bound [0,%d]", v, res.Scalar, indeg[v])
				}
			},
			finalValue: 1,
			finalWant:  func(v graph.NodeID) int64 { return indeg[v] },
		},
		{
			name:  "max-pao",
			a:     agg.Max{},
			write: func(rng *rand.Rand) int64 { return 1 + int64(rng.Intn(3)) },
			check: func(t *testing.T, v graph.NodeID, res agg.Result) {
				if res.Valid && (res.Scalar < 1 || res.Scalar > 3) {
					t.Errorf("read(%d) = %d outside stale-bound [1,3]", v, res.Scalar)
				}
			},
			finalValue: 2,
			finalWant:  func(graph.NodeID) int64 { return 2 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ag := paperAG()
			res, err := construct.Build(construct.AlgVNMA, ag, construct.Config{Iterations: 4})
			if err != nil {
				t.Fatal(err)
			}
			ov := res.Overlay
			// All-push start; the flip target is reader 6's overlay node,
			// which may legally toggle pull<->push at any time (its inputs
			// stay push, and nothing is downstream of a reader).
			decide(t, ov, "push")
			flip := ov.Reader(0, 6)
			if flip == overlay.NoNode {
				t.Fatal("reader 6 not in overlay")
			}
			e, err := New(ov, tc.a, agg.NewTupleWindow(1))
			if err != nil {
				t.Fatal(err)
			}
			var done atomic.Bool
			var wg sync.WaitGroup
			for gr := 0; gr < 6; gr++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					batch := make([]graph.Event, 0, 64)
					for i := 0; i < 400; i++ {
						v := graph.NodeID(rng.Intn(7))
						switch rng.Intn(3) {
						case 0:
							_ = e.Write(v, tc.write(rng), int64(i))
						case 1:
							got, err := e.Read(v)
							if err != nil {
								t.Error(err)
								return
							}
							tc.check(t, v, got)
						case 2:
							batch = batch[:0]
							for j := 0; j < cap(batch); j++ {
								batch = append(batch, graph.Event{
									Kind: graph.ContentWrite, Node: graph.NodeID(rng.Intn(7)),
									Value: tc.write(rng), TS: int64(i),
								})
							}
							e.Apply(batch, graph.NoAdvance)
						}
					}
				}(int64(gr))
			}
			go func() {
				wg.Wait()
				done.Store(true)
			}()
			// The adaptive loop: flip the decision and install until the
			// storm has fully drained, so every install overlaps live
			// traffic.
			for i := 0; i < 4 || !done.Load(); i++ {
				if i%2 == 0 {
					ov.Node(flip).Dec = overlay.Pull
				} else {
					ov.Node(flip).Dec = overlay.Push
				}
				if err := e.Rebuild(ov, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Quiesce: one deterministic write per node overwrites every
			// c=1 window; all reads must then be exact — every write of
			// the storm survived every install exactly once.
			for v := graph.NodeID(0); v < 7; v++ {
				if err := e.Write(v, tc.finalValue, 1<<40); err != nil {
					t.Fatal(err)
				}
			}
			for v := graph.NodeID(0); v < 7; v++ {
				got, err := e.Read(v)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Valid || got.Scalar != tc.finalWant(v) {
					t.Fatalf("%s: read(%d) = %v, want %d", tc.name, v, got, tc.finalWant(v))
				}
			}
		})
	}
}

// TestReadIntoReusesBuffer checks that ReadInto reuses the caller's result
// list for TOP-K answers instead of allocating a fresh one per read.
func TestReadIntoReusesBuffer(t *testing.T) {
	ag := paperAG()
	ov := construct.Baseline(ag)
	decide(t, ov, "pull")
	e, err := New(ov, agg.TopK{K: 2}, agg.NewTupleWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); v < 7; v++ {
		_ = e.Write(v, int64(v%2), 0)
		_ = e.Write(v, int64(v%2), 1)
	}
	var res agg.Result
	if err := e.ReadInto(6, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Valid || len(res.List) == 0 {
		t.Fatalf("ReadInto(6) = %v, want a top-k list", res)
	}
	first := &res.List[0]
	if err := e.ReadInto(6, &res); err != nil {
		t.Fatal(err)
	}
	if &res.List[0] != first {
		t.Fatal("ReadInto allocated a fresh list despite sufficient capacity")
	}
	if raceEnabled {
		return // race instrumentation allocates; skip the exact count
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.ReadInto(6, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadInto allocates %v per read, want 0", allocs)
	}
}
