package exec

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// TestRebuildCarriesCellsByGraphID moves a live engine onto a differently
// shaped (and differently numbered) overlay and checks each thing Rebuild
// promises: surviving writers keep their window contents, skipped and new
// writers start empty, readers answer the brute-force fold over the new
// input lists, a node-restricted subscription keeps delivering for its
// node at its new slot, and the expiry index knows every carried deadline.
func TestRebuildCarriesCellsByGraphID(t *testing.T) {
	after := map[graph.NodeID][]graph.NodeID{
		0: {2, 3, 7}, // 7 is a writer the old overlay did not have
		2: {0, 1, 5},
		6: {0, 1, 2, 3, 4, 5},
		8: {4, 5}, // a reader the old overlay did not have
	}
	for _, a := range []agg.Aggregate{agg.Sum{}, agg.Max{}} {
		t.Run(a.Name(), func(t *testing.T) {
			ov := construct.Baseline(paperAG())
			dataflow.DecideAll(ov, overlay.Push)
			e, err := New(ov, a, agg.NewTimeWindow(100))
			if err != nil {
				t.Fatal(err)
			}
			content := map[graph.NodeID][]int64{}
			write := func(v graph.NodeID, x, ts int64) {
				t.Helper()
				if err := e.Write(v, x, ts); err != nil {
					t.Fatal(err)
				}
				content[v] = append(content[v], x)
			}
			for v := graph.NodeID(0); v < 6; v++ {
				write(v, int64(10+v), int64(v))
				write(v, int64(20+v), int64(10+v))
			}
			sub, err := e.Subscribe(8, 6)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Unsubscribe(sub)

			res, err := construct.Build(construct.AlgVNMA, bipartite.FromInputLists(after), construct.Config{Iterations: 3})
			if err != nil {
				t.Fatal(err)
			}
			dataflow.DecideAll(res.Overlay, overlay.Push)
			if err := e.Rebuild(res.Overlay, agg.NewTimeWindow(100), map[graph.NodeID]bool{5: true}); err != nil {
				t.Fatal(err)
			}
			delete(content, 5) // skipped: its window must not survive

			check := func(when string) {
				t.Helper()
				for r, inputs := range after {
					pao := a.NewPAO()
					n := 0
					for _, w := range inputs {
						for _, x := range content[w] {
							pao.AddValue(x)
							n++
						}
					}
					got, err := e.Read(r)
					if err != nil {
						t.Fatalf("%s: read %d: %v", when, r, err)
					}
					if want := pao.Finalize(); got.Valid != (n > 0) || (n > 0 && got.Scalar != want.Scalar) {
						t.Fatalf("%s: read(%d) = %+v, brute force %+v over %d values", when, r, got, want, n)
					}
				}
			}
			check("after rebuild")
			if _, err := e.Read(1); err == nil {
				t.Fatal("reader 1 is not in the rebuilt overlay but still answers")
			}
			if got := e.ExpiryIndexSize(); got != 5 {
				t.Fatalf("expiry index holds %d writers, want the 5 carried ones", got)
			}

			write(5, 99, 30) // the skipped id starts over
			write(7, 1, 31)  // so does the new writer
			write(0, 50, 32)
			check("after post-rebuild writes")
			var last Update
			for len(sub.Updates()) > 0 {
				last = <-sub.Updates()
			}
			if want, _ := e.Read(6); last.Node != 6 || last.Result.Scalar != want.Scalar {
				t.Fatalf("subscriber on 6 last saw %+v, read is %+v", last, want)
			}

			e.Apply(nil, 105) // drops every first-round value (ts 0..5)
			for v := range content {
				if v < 5 {
					content[v] = content[v][1:]
				}
			}
			check("after expiry through the re-seeded index")
		})
	}
}

// TestRebuildReattachesSubscriptionAfterReaderLoss: a subscription restricted
// to node v outlives a recompile in which v has no reader (its last in-edge
// was removed) and delivers again once a later recompile brings the reader
// back. The notify table has no entry for it in between, so the engine must
// remember it elsewhere.
func TestRebuildReattachesSubscriptionAfterReaderLoss(t *testing.T) {
	const v = graph.NodeID(9)
	with := map[graph.NodeID][]graph.NodeID{8: {0, 1}, v: {1}}
	without := map[graph.NodeID][]graph.NodeID{8: {0, 1}}
	overlayOf := func(lists map[graph.NodeID][]graph.NodeID) *overlay.Overlay {
		ov := construct.Baseline(bipartite.FromInputLists(lists))
		dataflow.DecideAll(ov, overlay.Push)
		return ov
	}
	e, err := New(overlayOf(with), agg.Sum{}, agg.NewTupleWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := e.Subscribe(8, v)
	if err != nil {
		t.Fatal(err)
	}
	for step, lists := range []map[graph.NodeID][]graph.NodeID{without, with} {
		if err := e.Rebuild(overlayOf(lists), agg.NewTupleWindow(4), nil); err != nil {
			t.Fatal(err)
		}
		if got := e.Subscribers(); got != 1 {
			t.Fatalf("after rebuild %d: %d subscribers, want 1", step, got)
		}
		if err := e.Write(1, int64(10+step), int64(step)); err != nil {
			t.Fatal(err)
		}
		if want := step; len(sub.Updates()) != want {
			t.Fatalf("after rebuild %d and a write to 1: %d updates pending, want %d", step, len(sub.Updates()), want)
		}
	}
	if u := <-sub.Updates(); u.Node != v || u.Result.Scalar != 21 {
		t.Fatalf("update %+v, want node %d with both writes (21)", u, v)
	}
	e.Unsubscribe(sub)
	if got := e.Subscribers(); got != 0 {
		t.Fatalf("%d subscribers after Unsubscribe, want 0", got)
	}
}

// TestRebuildUnpublishesUncoveredTable: a Rebuild that takes away the only
// reader a node-restricted subscription covers publishes no subscriber
// table — the write path then skips fan-out, exactly as after Unsubscribe —
// and the Rebuild that brings the reader back publishes one again.
func TestRebuildUnpublishesUncoveredTable(t *testing.T) {
	const v = graph.NodeID(9)
	with := map[graph.NodeID][]graph.NodeID{8: {0, 1}, v: {1}}
	without := map[graph.NodeID][]graph.NodeID{8: {0, 1}}
	overlayOf := func(lists map[graph.NodeID][]graph.NodeID) *overlay.Overlay {
		ov := construct.Baseline(bipartite.FromInputLists(lists))
		dataflow.DecideAll(ov, overlay.Push)
		return ov
	}
	e, err := New(overlayOf(with), agg.Sum{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := e.Subscribe(8, v)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unsubscribe(sub)
	if err := e.Rebuild(overlayOf(without), nil, nil); err != nil {
		t.Fatal(err)
	}
	if nt := e.notify.Load(); nt != nil {
		t.Fatalf("table after the reader's loss = %+v, want nil", *nt)
	}
	if err := e.Rebuild(overlayOf(with), nil, nil); err != nil {
		t.Fatal(err)
	}
	if e.notify.Load() == nil {
		t.Fatal("no table after the reader came back")
	}
}
