package eagr

import "testing"

// TestFilteredNeighborhoodThroughFacade registers a filtered query through
// the public Session API, mutates the graph, and asserts reads keep
// respecting the filter.
func TestFilteredNeighborhoodThroughFacade(t *testing.T) {
	// 1,2,3 -> 0; keep only even-id inputs.
	g := NewGraph(5)
	for _, u := range []NodeID{1, 2, 3} {
		if err := g.AddEdge(u, 0); err != nil {
			t.Fatal(err)
		}
	}
	even := Filtered(KHop(1), func(_ *Graph, _, cand NodeID) bool {
		return cand%2 == 0
	}, "even-only")
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "sum"}, Options{Neighborhood: even, Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []NodeID{1, 2, 3} {
		if err := sess.Write(u, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := q.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 10 { // only node 2 passes the filter
		t.Fatalf("filtered sum = %v, want 10", got)
	}
	// The graph gains 4 -> 0 (even: passes) and 2 -> 0 is retracted; the
	// filtered reader must track both, and odd inputs must stay excluded.
	if err := sess.AddEdge(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Write(4, 7, 1); err != nil {
		t.Fatal(err)
	}
	got, _ = q.Read(0)
	if got.Scalar != 17 {
		t.Fatalf("filtered sum after AddEdge(4,0) = %v, want 17", got)
	}
	if err := sess.RemoveEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	got, _ = q.Read(0)
	if got.Scalar != 7 {
		t.Fatalf("filtered sum after RemoveEdge(2,0) = %v, want 7", got)
	}
	// Odd-id structural churn never leaks through the filter.
	if err := sess.Write(3, 1000, 2); err != nil {
		t.Fatal(err)
	}
	got, _ = q.Read(0)
	if got.Scalar != 7 {
		t.Fatalf("filtered sum after odd write = %v, want 7", got)
	}
}

func TestWriteBatchThroughFacade(t *testing.T) {
	// 1,2,3 -> 0; batch-ingest with repeats on one node to check
	// per-writer ordering (last write wins under the c=1 window).
	g := NewGraph(4)
	for _, u := range []NodeID{1, 2, 3} {
		if err := g.AddEdge(u, 0); err != nil {
			t.Fatal(err)
		}
	}
	sess, q := one(t, g, QuerySpec{Aggregate: "sum"})
	batch := []Event{
		NewWrite(1, 99, 0),
		NewWrite(2, 20, 1),
		NewWrite(3, 30, 2),
		NewWrite(1, 10, 3), // overwrites 99
	}
	if err := sess.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	got, err := q.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 60 {
		t.Fatalf("batched sum = %v, want 60", got)
	}
}

func TestKHopHelper(t *testing.T) {
	if KHop(0).Name() != "in-1hop" || KHop(1).Name() != "in-1hop" {
		t.Fatal("KHop(<=1) should be 1-hop in-neighbors")
	}
	if KHop(2).Name() != "in-2hop" {
		t.Fatal("KHop(2) should be 2-hop")
	}
}

func TestApproxAggregatesThroughFacade(t *testing.T) {
	for _, spec := range []string{"topk~(2)", "distinct~", "stddev"} {
		sess, q := one(t, ring(10), QuerySpec{Aggregate: spec, WindowTuples: 8})
		for i := 0; i < 10; i++ {
			if err := sess.Write(NodeID(i), int64(i%3), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.Read(0); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}
