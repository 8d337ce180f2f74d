package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/graph"
)

// nearBiclique returns a 200-node graph in which every reader 100–199 is fed
// by all of writers 0–99 but one (its own index), with 2 % of the remaining
// edges dropped: dense enough that VNM_N covers readers with a shared
// partial minus a negative edge, which makes the overlay non-maintainable.
func nearBiclique(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewWithNodes(200)
	for r := 100; r < 200; r++ {
		for w := 0; w < 100; w++ {
			if w != r-100 && rng.Intn(50) != 0 {
				_ = g.AddEdge(graph.NodeID(w), graph.NodeID(r))
			}
		}
	}
	return g
}

// TestRecompileUnderConcurrentWriteBatch is the lost-write regression net
// for the recompile path: a goroutine streams 32-event WriteBatches (capped
// so that no writer's tuple window ever evicts: every accepted value must
// stay visible forever) while the test goroutine forces recompiles — by edge
// churn, or by attaching and detaching a 2-hop family member — with a
// subscriber on 16 readers throughout. After quiescence every read must
// equal the brute-force sum over the final graph and each subscribed
// reader's last Update must equal its final read. The auto-selected
// algorithm (VNM_N for SUM) recompiles on every structural change; the iob
// rows are the control that repairs the overlay in place instead.
func TestRecompileUnderConcurrentWriteBatch(t *testing.T) {
	churnOps := map[string]int{"edges": 24, "members": 8} // a member costs more
	for _, alg := range []string{"", construct.AlgIOB} {
		for _, axis := range []string{"edges", "members"} {
			t.Run(fmt.Sprintf("alg=%q/%s", alg, axis), func(t *testing.T) {
				g := nearBiclique(11)
				m := NewMulti(g)
				q := Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(2048), Continuous: true}
				a0, err := m.AttachMerged("k0", "fam", q, Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				sys := a0.System()
				if got := sys.Stats().Maintainable; got != (alg == construct.AlgIOB) {
					t.Fatalf("Maintainable = %v under algorithm %q", got, alg)
				}

				var watched []graph.NodeID
				for r := 100; len(watched) < 16; r += 6 {
					watched = append(watched, graph.NodeID(r))
				}
				sub, err := a0.Subscribe(64, watched...)
				if err != nil {
					t.Fatal(err)
				}
				last := map[graph.NodeID]int64{}
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for u := range sub.Updates() {
						last[u.Node] = u.Result.Scalar
					}
				}()

				total := make([]int64, 100) // everything ever written per writer
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(5))
					batch := make([]graph.Event, 32)
					// 4000 batches put ~1280 ± 36 values on each writer.
					for ts := int64(1); ts <= 4000; ts++ {
						select {
						case <-stop:
							return
						default:
						}
						for i := range batch {
							w, v := rng.Intn(100), int64(rng.Intn(1000))
							batch[i] = graph.Event{Kind: graph.ContentWrite, Node: graph.NodeID(w), Value: v, TS: ts}
							total[w] += v
						}
						if _, err := m.Apply(batch, graph.NoAdvance); err != nil {
							t.Error(err)
							return
						}
						time.Sleep(20 * time.Microsecond) // spread over the churn
					}
				}()

				rng := rand.New(rand.NewSource(3))
				for i := 0; i < churnOps[axis]; i++ {
					switch axis {
					case "edges":
						w, r := graph.NodeID(rng.Intn(100)), graph.NodeID(100+rng.Intn(100))
						kind := graph.EdgeAdd
						if g.HasEdge(w, r) {
							kind = graph.EdgeRemove
						}
						if _, err := applyOne(m, graph.Event{Kind: kind, Node: w, Peer: r}); err != nil {
							t.Fatal(err)
						}
					case "members":
						a, err := m.AttachMerged(fmt.Sprintf("k2-%d", i), "fam",
							Query{Aggregate: agg.Sum{}, Window: q.Window, Continuous: true,
								Neighborhood: graph.KHopIn{K: 2}}, Options{Algorithm: alg})
						if err != nil {
							t.Fatal(err)
						}
						if a.System() != sys {
							t.Fatal("2-hop member did not join the family")
						}
						if err := m.Detach(a); err != nil {
							t.Fatal(err)
						}
					}
				}
				close(stop)
				wg.Wait()

				// One settling write per writer, so every watched reader's
				// last Update is taken after the last structural change.
				settle := make([]graph.Event, 100)
				for w := range settle {
					settle[w] = graph.Event{Kind: graph.ContentWrite, Node: graph.NodeID(w), Value: 1, TS: 1 << 40}
					total[w]++
				}
				if _, err := m.Apply(settle, graph.NoAdvance); err != nil {
					t.Fatal(err)
				}
				final := map[graph.NodeID]int64{}
				for v := graph.NodeID(0); v < 200; v++ {
					var want int64
					for _, u := range g.In(v) {
						want += total[u]
					}
					got, err := a0.Read(v)
					if err != nil {
						t.Fatalf("read %d: %v", v, err)
					}
					if got.Scalar != want {
						t.Errorf("read(%d) = %d, brute force %d", v, got.Scalar, want)
					}
					final[v] = got.Scalar
				}
				a0.Unsubscribe(sub)
				<-drained
				for _, v := range watched {
					if last[v] != final[v] {
						t.Errorf("subscriber's last update for %d = %d, final read %d", v, last[v], final[v])
					}
				}
				if st := sys.Stats(); (st.Recompiles > 0) == st.Maintainable {
					t.Errorf("Recompiles = %d with Maintainable = %v", st.Recompiles, st.Maintainable)
				}
			})
		}
	}
}
