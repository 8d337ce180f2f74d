package core

import (
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/graph"
)

func multiRing(n int) *graph.Graph {
	g := graph.NewWithNodes(n)
	for i := 0; i < n; i++ {
		_ = g.AddEdge(graph.NodeID((i+1)%n), graph.NodeID(i))
		_ = g.AddEdge(graph.NodeID((i+n-1)%n), graph.NodeID(i))
	}
	return g
}

// applyOne drives one event through ApplyBatchNodes, the entry point
// production drives (Session.apply), and returns the node ids it allocated.
func applyOne(m *MultiSystem, ev graph.Event) ([]graph.NodeID, error) {
	return m.Apply([]graph.Event{ev}, graph.NoAdvance)
}

// writeOne is applyOne for a content write.
func writeOne(m *MultiSystem, v graph.NodeID, value, ts int64) error {
	_, err := applyOne(m, graph.Event{Kind: graph.ContentWrite, Node: v, Value: value, TS: ts})
	return err
}

func TestMultiAttachShares(t *testing.T) {
	m := NewMulti(multiRing(10))
	q := Query{Aggregate: agg.Sum{}}
	a1, err := m.Attach("sum", q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Attach("sum", q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.System() != a2.System() {
		t.Fatal("same-key attachments must share one compiled system")
	}
	if m.NumGroups() != 1 || a1.Shared() != 2 {
		t.Fatalf("groups=%d shared=%d, want 1/2", m.NumGroups(), a1.Shared())
	}
	// A different key compiles its own system.
	a3, err := m.Attach("max", Query{Aggregate: agg.Max{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumGroups() != 2 || a3.System() == a1.System() {
		t.Fatal("distinct keys must not share")
	}
	// Empty key never shares.
	a4, _ := m.Attach("", q, Options{})
	a5, _ := m.Attach("", q, Options{})
	if a4.System() == a5.System() {
		t.Fatal("empty-key attachments must not share")
	}
}

func TestMultiDetachTearsDownGroup(t *testing.T) {
	m := NewMulti(multiRing(6))
	q := Query{Aggregate: agg.Sum{}}
	a1, _ := m.Attach("sum", q, Options{})
	a2, _ := m.Attach("sum", q, Options{})
	if err := m.Detach(a1); err != nil {
		t.Fatal(err)
	}
	if m.NumGroups() != 1 {
		t.Fatal("group must survive while a reference remains")
	}
	if err := m.Detach(a1); err == nil {
		t.Fatal("double detach must error")
	}
	if err := m.Detach(a2); err != nil {
		t.Fatal(err)
	}
	if m.NumGroups() != 0 || len(m.Systems()) != 0 {
		t.Fatal("last detach must tear the group down")
	}
	if a2.System() != nil {
		t.Fatal("detached attachment must not expose a system")
	}
}

func TestMultiWriteFansOut(t *testing.T) {
	m := NewMulti(multiRing(8))
	sum, _ := m.Attach("sum", Query{Aggregate: agg.Sum{}}, Options{})
	max, _ := m.Attach("max", Query{Aggregate: agg.Max{}}, Options{})
	for i := 0; i < 8; i++ {
		if err := writeOne(m, graph.NodeID(i), int64(10*i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// N(3) = {2, 4}: sum 60, max 40.
	s, err := sum.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	x, err := max.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scalar != 60 || x.Scalar != 40 {
		t.Fatalf("sum=%v max=%v, want 60/40", s, x)
	}
}

func TestMultiStructuralFanOut(t *testing.T) {
	g := multiRing(8)
	m := NewMulti(g)
	sum, _ := m.Attach("sum", Query{Aggregate: agg.Sum{}}, Options{Algorithm: construct.AlgIOB})
	cnt, _ := m.Attach("count", Query{Aggregate: agg.Count{}}, Options{Algorithm: construct.AlgIOB})
	for i := 0; i < 8; i++ {
		_ = writeOne(m, graph.NodeID(i), 1, int64(i))
	}
	if _, err := applyOne(m, graph.Event{Kind: graph.EdgeAdd, Node: 4, Peer: 0}); err != nil {
		t.Fatal(err)
	}
	s, _ := sum.Read(0)
	c, _ := cnt.Read(0)
	if s.Scalar != 3 || c.Scalar != 3 {
		t.Fatalf("after AddEdge: sum=%v count=%v, want 3/3", s, c)
	}
	if _, err := applyOne(m, graph.Event{Kind: graph.EdgeRemove, Node: 4, Peer: 0}); err != nil {
		t.Fatal(err)
	}
	s, _ = sum.Read(0)
	c, _ = cnt.Read(0)
	if s.Scalar != 2 || c.Scalar != 2 {
		t.Fatalf("after RemoveEdge: sum=%v count=%v, want 2/2", s, c)
	}
	// Node add + remove propagate to both overlays; the graph mutates once.
	added, err := applyOne(m, graph.Event{Kind: graph.NodeAdd})
	if err != nil || len(added) != 1 {
		t.Fatalf("NodeAdd: added=%v err=%v", added, err)
	}
	v := added[0]
	if _, err := applyOne(m, graph.Event{Kind: graph.EdgeAdd, Node: v, Peer: 0}); err != nil {
		t.Fatal(err)
	}
	_ = writeOne(m, v, 5, 100)
	s, _ = sum.Read(0)
	if s.Scalar != 7 {
		t.Fatalf("after new node write: sum=%v, want 7", s)
	}
	if _, err := applyOne(m, graph.Event{Kind: graph.NodeRemove, Node: v}); err != nil {
		t.Fatal(err)
	}
	s, _ = sum.Read(0)
	c, _ = cnt.Read(0)
	if s.Scalar != 2 || c.Scalar != 2 {
		t.Fatalf("after RemoveNode: sum=%v count=%v, want 2/2", s, c)
	}
}

// TestMultiSharingBeatsIndependent pins the acceptance criterion: two
// same-aggregate queries on one MultiSystem own strictly fewer partial
// aggregators than two independently compiled systems.
func TestMultiSharingBeatsIndependent(t *testing.T) {
	build := func() (*graph.Graph, Query, Options) {
		return multiRing(32), Query{Aggregate: agg.Sum{}}, Options{Algorithm: construct.AlgVNMA}
	}
	g, q, o := build()
	solo, err := Compile(g, q, o)
	if err != nil {
		t.Fatal(err)
	}
	indep := 2 * solo.Stats().Overlay.Partials
	g2, q2, o2 := build()
	m := NewMulti(g2)
	if _, err := m.Attach("k", q2, o2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach("k", q2, o2); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sys := range m.Systems() {
		total += sys.Stats().Overlay.Partials
	}
	if indep == 0 {
		t.Skip("fixture produced no partials")
	}
	if total >= indep {
		t.Fatalf("shared partials = %d, independent = %d; sharing must win", total, indep)
	}
}

func TestMultiAttachDetachConcurrentWithWrites(t *testing.T) {
	m := NewMulti(multiRing(32))
	anchor, err := m.Attach("sum", Query{Aggregate: agg.Sum{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]graph.Event, 256)
	for i := range events {
		events[i] = graph.Event{Kind: graph.ContentWrite, Node: graph.NodeID(i % 32), Value: int64(i), TS: int64(i)}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = m.Apply(events, graph.NoAdvance)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		a, err := m.Attach("count", Query{Aggregate: agg.Count{}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Read(0); err != nil {
			t.Fatal(err)
		}
		if err := m.Detach(a); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := anchor.Read(0); err != nil {
		t.Fatal(err)
	}
}
