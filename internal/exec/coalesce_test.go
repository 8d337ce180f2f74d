package exec

import (
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// starEngine builds an all-push SUM engine over a star: writers 1..n all
// feed reader 0.
func starEngine(t *testing.T, n int) *Engine {
	t.Helper()
	g := graph.NewWithNodes(n + 1)
	for i := 1; i <= n; i++ {
		if err := g.AddEdge(graph.NodeID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	ov := construct.Baseline(ag)
	dataflow.DecideAll(ov, overlay.Push)
	eng, err := New(ov, agg.Sum{}, agg.NewTupleWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWriteBatchCoalescedFanout: a batch of writes into one ego network
// must notify the covering subscriber AT MOST ONCE per reader per batch,
// with the reader's settled value — not once per write.
func TestWriteBatchCoalescedFanout(t *testing.T) {
	const n = 8
	eng := starEngine(t, n)
	sub, err := eng.Subscribe(1024)
	if err != nil {
		t.Fatal(err)
	}
	// One batch: every writer writes twice.
	var batch []graph.Event
	for pass := 0; pass < 2; pass++ {
		for i := 1; i <= n; i++ {
			batch = append(batch, graph.Event{
				Kind: graph.ContentWrite, Node: graph.NodeID(i),
				Value: int64(i * (pass + 1)), TS: int64(pass),
			})
		}
	}
	eng.Apply(batch, graph.NoAdvance)
	var updates []Update
drain:
	for {
		select {
		case u := <-sub.Updates():
			updates = append(updates, u)
		default:
			break drain
		}
	}
	if len(updates) != 1 {
		t.Fatalf("coalesced batch delivered %d updates, want 1", len(updates))
	}
	// Settled value: second pass values 2*(1..8) sum = 72.
	if updates[0].Node != 0 || updates[0].Result.Scalar != 72 {
		t.Fatalf("update = node %d value %d, want node 0 value 72",
			updates[0].Node, updates[0].Result.Scalar)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", sub.Dropped())
	}

	// Concurrent callers are how batches go parallel: four goroutines each
	// apply one big batch over their own slice of the star's writers. Each
	// batch still notifies the one touched reader exactly once.
	const callers = 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var part []graph.Event
			for i := 0; i < 4096; i++ {
				if w := graph.NodeID(1 + i%n); int(w)%callers == c {
					part = append(part, graph.Event{
						Kind: graph.ContentWrite, Node: w, Value: int64(i), TS: int64(i),
					})
				}
			}
			eng.Apply(part, graph.NoAdvance)
		}(c)
	}
	wg.Wait()
	count := 0
drain2:
	for {
		select {
		case <-sub.Updates():
			count++
		default:
			break drain2
		}
	}
	if count != callers {
		t.Fatalf("%d concurrent coalesced batches delivered %d updates, want one per batch", callers, count)
	}
	eng.Unsubscribe(sub)
}

// TestWriteStillNotifiesPerWrite guards the single-write path: Write (not a
// batch Apply) keeps per-write delivery semantics.
func TestWriteStillNotifiesPerWrite(t *testing.T) {
	eng := starEngine(t, 3)
	sub, err := eng.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := eng.Write(graph.NodeID(i), 1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
drain:
	for {
		select {
		case <-sub.Updates():
			count++
		default:
			break drain
		}
	}
	if count != 3 {
		t.Fatalf("single writes delivered %d updates, want 3", count)
	}
	eng.Unsubscribe(sub)
}

// TestCovered checks push-coverage reporting on both decisions.
func TestCovered(t *testing.T) {
	eng := starEngine(t, 3) // all-push
	if !eng.Covered(0) {
		t.Fatal("push reader must be covered")
	}
	if eng.Covered(99) {
		t.Fatal("unknown node must not be covered")
	}
	// All-pull: nothing is covered.
	g := graph.NewWithNodes(4)
	_ = g.AddEdge(1, 0)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	ov := construct.Baseline(ag)
	dataflow.DecideAll(ov, overlay.Pull)
	pull, err := New(ov, agg.Sum{}, agg.NewTupleWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	if pull.Covered(0) {
		t.Fatal("pull reader must not be covered")
	}
}
