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
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// obsNodes is the data-graph size of the observation fixtures: every node
// reads a few others, and nodes 0..7 are hot inputs shared by many readers,
// so the VNM miners find sharing.
const obsNodes = 24

// obsAG draws the fixture's aggregation graph. merged gives it a second
// query tag.
func obsAG(rng *rand.Rand, merged bool) *bipartite.AG {
	views := make([]map[graph.NodeID][]graph.NodeID, 1)
	if merged {
		views = append(views, nil)
	}
	for tag := range views {
		lists := map[graph.NodeID][]graph.NodeID{}
		views[tag] = lists
		for v := graph.NodeID(0); v < obsNodes; v++ {
			if rng.Intn(4) == 0 {
				continue
			}
			seen := map[graph.NodeID]bool{v: true}
			var in []graph.NodeID
			for len(in) < 4+rng.Intn(5) {
				u := graph.NodeID(rng.Intn(8))
				if rng.Intn(4) == 0 {
					u = graph.NodeID(rng.Intn(obsNodes))
				}
				if !seen[u] {
					seen[u] = true
					in = append(in, u)
				}
			}
			lists[v] = in
		}
	}
	return bipartite.FromInputLists(views...)
}

// obsOverlay mines ag with alg ("baseline" for the unshared overlay) and
// annotates it with random consistent decisions. VNM_D may build duplicate
// writer→reader paths but on graphs this small never does, so under it
// some readers also get a direct edge from a writer they already reach
// through a partial. (The engine executes whatever the overlay says; this
// test checks counts, not answers.)
func obsOverlay(t *testing.T, rng *rand.Rand, alg string, ag *bipartite.AG) *overlay.Overlay {
	t.Helper()
	ov := construct.Baseline(ag)
	if alg != "baseline" {
		res, err := construct.Build(alg, ag, construct.Config{Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		ov = res.Overlay
	}
	if alg == construct.AlgVNMD {
		type dup struct{ w, r overlay.NodeRef }
		var dups []dup
		ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
			if n.Kind != overlay.ReaderNode || rng.Intn(2) == 0 {
				return
			}
			for _, in := range n.In {
				if p := ov.Node(in.Peer); p.Kind == overlay.PartialNode && len(p.In) > 0 {
					dups = append(dups, dup{p.In[rng.Intn(len(p.In))].Peer, ref})
					return
				}
			}
		})
		for _, d := range dups {
			_ = ov.AddEdge(d.w, d.r, false) // refused when the edge exists: no new path then
		}
	}
	return decideEach(t, ov, randomDecisions(rng))
}

// randomDecisions returns a decision source that pulls one node in 2, 3 or 4.
func randomDecisions(rng *rand.Rand) func() overlay.Decision {
	share := 1 + rng.Intn(3)
	return func() overlay.Decision {
		if rng.Intn(share+1) == 0 {
			return overlay.Pull
		}
		return overlay.Push
	}
}

// obsBatch draws a batch of content writes: a hot writer holds a third of
// it, values come from a domain of five (so tuple windows admit and evict
// the same value inside the batch), and a few land on a node nobody reads.
func obsBatch(rng *rand.Rand, ts *int64) []graph.Event {
	evs := make([]graph.Event, 8+rng.Intn(40))
	hot := graph.NodeID(rng.Intn(obsNodes))
	for i := range evs {
		v := graph.NodeID(rng.Intn(obsNodes))
		switch rng.Intn(6) {
		case 0, 1:
			v = hot
		case 2:
			v = 1000 // no writer: absorbed
		}
		*ts++
		evs[i] = graph.Event{Kind: graph.ContentWrite, Node: v, Value: int64(rng.Intn(5)), TS: *ts}
	}
	return evs
}

// TestObservationsMatchVisitCount holds the drained observations — counted
// at the overlay's edges (a write at its writer, a walk once per distinct
// writer per Apply, a read once at its reader) and expanded through the
// plan when drained — to the per-visit counting they replaced (visitCount,
// export_test.go), node by node. Overlays: VNM_A, VNM_D (duplicate paths),
// VNM_N (negative edges) and a merged two-tag VNM_A, each under random
// decisions; batches cancel values inside a writer's window and close time;
// reads go through every surface, push and pull, tagged and not; between
// them a same-overlay Rebuild flips decisions (the walks and reads before it
// must be expanded by the plan they ran on) and a recompile moves to another
// overlay (writers' counts carried by graph id, the rest start at zero).
func TestObservationsMatchVisitCount(t *testing.T) {
	seeds := int64(12)
	if testing.Short() || raceEnabled {
		seeds = 4
	}
	windows := map[string]func() agg.Window{
		"tuple1": func() agg.Window { return agg.NewTupleWindow(1) },
		"tuple4": func() agg.Window { return agg.NewTupleWindow(4) },
		"time40": func() agg.Window { return agg.NewTimeWindow(40) },
	}
	shapes := []struct {
		name, alg string
		merged    bool
	}{
		{"vnma", construct.AlgVNMA, false},
		{"vnmd", construct.AlgVNMD, false},
		{"vnmn", construct.AlgVNMN, false},
		{"merged", construct.AlgVNMA, true},
	}
	var negEdges, dupPaths, pulled, rebuilds, recompiles int
	for _, sh := range shapes {
		for _, spec := range []string{"sum", "max", "topk(3)"} {
			if spec == "max" && sh.alg == construct.AlgVNMN {
				continue // a selection refuses negative edges
			}
			for wname, window := range windows {
				t.Run(fmt.Sprintf("%s/%s/%s", sh.name, spec, wname), func(t *testing.T) {
					a, err := agg.Parse(spec)
					if err != nil {
						t.Fatal(err)
					}
					for seed := int64(1); seed <= seeds; seed++ {
						rng := rand.New(rand.NewSource(seed))
						ag := obsAG(rng, sh.merged)
						ov := obsOverlay(t, rng, sh.alg, ag)
						e, err := New(ov, a, window())
						if err != nil {
							t.Fatal(err)
						}
						st := e.state.Load()
						for _, pe := range st.plan.top.In {
							if _, neg := overlay.UnpackRef(pe); neg {
								negEdges++
							}
						}
						for _, w := range st.plan.top.Writers {
							seen := map[overlay.NodeRef]bool{}
							for _, pe := range st.plan.closureOf(w) {
								ref, _ := overlay.UnpackRef(pe)
								if seen[ref] {
									dupPaths++
								}
								seen[ref] = true
							}
						}
						vc := newVisitCount()
						var ts int64
						var res agg.Result
						compare := func(step int) {
							t.Helper()
							gotPush, gotPull := e.Observations()
							wantPush, wantPull := vc.drain()
							if !reflect.DeepEqual(gotPush, wantPush) || !reflect.DeepEqual(gotPull, wantPull) {
								t.Fatalf("seed %d step %d: observations diverged\ndrained pushes %v\nvisits  pushes %v\ndrained pulls  %v\nvisits  pulls  %v",
									seed, step, gotPush, wantPush, gotPull, wantPull)
							}
						}
						for step := 0; step < 80; step++ {
							switch op := rng.Intn(12); {
							case op < 4:
								adv := graph.NoAdvance
								if rng.Intn(3) == 0 {
									adv = ts - int64(rng.Intn(60))
								}
								vc.apply(e, obsBatch(rng, &ts), adv)
							case op < 8:
								for range 1 + rng.Intn(6) {
									tag := int32(0)
									if sh.merged {
										tag = int32(rng.Intn(2))
									}
									v := graph.NodeID(rng.Intn(obsNodes + 1)) // obsNodes: no reader
									st := e.state.Load()
									rref := st.plan.reader(tag, v)
									vc.read(st, rref)
									if rref != overlay.NoNode && st.plan.top.Dec[rref] == overlay.Pull {
										pulled++
									}
									switch rng.Intn(5) {
									case 0:
										_, err = e.ReadTagged(tag, v)
									case 1:
										err = e.ReadTaggedInto(tag, v, &res)
									case 2:
										_, err = e.ReadTaggedWire(tag, v)
									case 3:
										if tag == 0 {
											_, err = e.Read(v)
										} else {
											_, err = e.ReadTagged(tag, v)
										}
									default:
										if tag == 0 {
											err = e.ReadInto(v, &res)
										} else {
											err = e.ReadTaggedInto(tag, v, &res)
										}
									}
									if (err != nil) != (rref == overlay.NoNode) {
										t.Fatalf("seed %d: read(%d, %d) on slot %d: %v", seed, tag, v, rref, err)
									}
								}
							case op < 9:
								compare(step)
							case op < 11:
								// Same overlay, decisions flipped: every count
								// before the install is expanded by the old plan.
								old := e.state.Load()
								decideEach(t, ov, randomDecisions(rng))
								if err := e.Rebuild(ov, window(), nil); err != nil {
									t.Fatal(err)
								}
								vc.rebind(old, e.state.Load(), true)
								rebuilds++
							default:
								// A recompile: another overlay over the same graph.
								old := e.state.Load()
								alg := sh.alg
								if rng.Intn(2) == 0 {
									alg = "baseline"
								}
								ov = obsOverlay(t, rng, alg, ag)
								if err := e.Rebuild(ov, window(), nil); err != nil {
									t.Fatal(err)
								}
								vc.rebind(old, e.state.Load(), false)
								recompiles++
							}
						}
						compare(-1)
					}
				})
			}
		}
	}
	if negEdges == 0 || dupPaths == 0 || pulled == 0 || rebuilds == 0 || recompiles == 0 {
		t.Fatalf("fixture lost coverage: %d negative edges, %d duplicate closure entries, %d pull reads, %d rebuilds, %d recompiles",
			negEdges, dupPaths, pulled, rebuilds, recompiles)
	}
}

// TestSelectCellNeverTorn races lock-free MAX/MIN reads of published cells
// against writers that drive push nodes between empty and non-empty — time
// windows expiring to nothing, tuple-window evictions, and one writer's
// removal overtaking its addition — on an overlay with push and pull readers
// (run it under -race). Every answer must be either empty with Scalar 0 or a
// value some writer held: a load that paired one store's value with
// another's validity reads 0 as valid, or a value as empty. Quiesced, every
// reader must equal a brute-force fold of the windows.
func TestSelectCellNeverTorn(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	dec := func() func() overlay.Decision {
		i := 0
		return func() overlay.Decision { // push, push, pull, ...
			i++
			if i%3 == 0 {
				return overlay.Pull
			}
			return overlay.Push
		}
	}
	for _, a := range []agg.Aggregate{agg.Max{}, agg.Min{}} {
		for wname, window := range map[string]func() agg.Window{
			"time8":  func() agg.Window { return agg.NewTimeWindow(8) },
			"tuple1": func() agg.Window { return agg.NewTupleWindow(1) },
		} {
			t.Run(a.Name()+"/"+wname, func(t *testing.T) {
				ov := batchOverlay(t, "dup", dec())
				e, err := New(ov, a, window())
				if err != nil {
					t.Fatal(err)
				}
				top := e.Topology()
				var push, pull int
				for v := graph.NodeID(100); v < 105; v++ {
					if top.Dec[top.Reader(0, v)] == overlay.Push {
						push++
					} else {
						pull++
					}
				}
				if push == 0 || pull == 0 {
					t.Fatalf("fixture has %d push and %d pull readers", push, pull)
				}
				// Values are 1..64, never 0: a torn load shows as (0, valid)
				// or as (v != 0, empty).
				held := func(v int64) bool { return v >= 1 && v <= 64 }
				var stop atomic.Bool
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var res agg.Result
						for n := 0; !stop.Load(); n++ {
							v := graph.NodeID(100 + n%5)
							r, err := e.Read(v)
							if err == nil {
								err = e.ReadInto(v, &res)
							}
							if err != nil {
								t.Error(err)
								return
							}
							for _, r := range []agg.Result{r, res} {
								if r.Valid && !held(r.Scalar) || !r.Valid && r.Scalar != 0 {
									t.Errorf("read(%d) = (Scalar %d, Valid %v): torn", v, r.Scalar, r.Valid)
									return
								}
							}
							if n%64 == 0 {
								runtime.Gosched()
							}
						}
					}()
				}
				rng := rand.New(rand.NewSource(7))
				var ts int64
				for round := 0; round < rounds && !t.Failed(); round++ {
					evs := make([]graph.Event, 1+rng.Intn(6))
					for i := range evs {
						ts++
						evs[i] = graph.Event{Kind: graph.ContentWrite, Node: graph.NodeID(rng.Intn(batchWriters)), Value: 1 + rng.Int63n(64), TS: ts}
					}
					e.Apply(evs, graph.NoAdvance)
					if round%5 == 4 {
						// A removal ahead of its addition: transiently no
						// positive value downstream of writer w.
						st := e.state.Load()
						w := st.plan.writer(graph.NodeID(rng.Intn(batchWriters)))
						x := 1 + rng.Int63n(64)
						e.propagate(st, w, nil, []int64{x})
						e.propagate(st, w, []int64{x}, nil)
					}
					if round%3 == 2 {
						ts += 10
						e.Apply(nil, ts) // a time window empties completely
					}
				}
				stop.Store(true)
				wg.Wait()
				checkAgainstWindows(t, e, a, "quiesced")
				e.Apply(nil, ts+100)
				checkAgainstWindows(t, e, a, "after the final advance")
			})
		}
	}
}
