package overlay

import (
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// figure1dOverlay builds the overlay of Figure 1(d): PA1 aggregates
// {a,b,c}, PA2 aggregates {d,e,f}=... In the figure PA1 aggregates
// aw,bw,cw and PA2 aggregates dw,ew,fw; readers combine them with direct
// writer edges. We build a small overlay in that spirit for the running
// example and validate it.
func figure1dLikeOverlay(t *testing.T) (*Overlay, *bipartite.AG) {
	t.Helper()
	ag := bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		// e: {a,b,c,d}; g: {a,b,c,d,e,f}
		4: {0, 1, 2, 3},
		6: {0, 1, 2, 3, 4, 5},
	})
	o := New(ag.NumEdges())
	var w [6]NodeRef
	for i := 0; i < 6; i++ {
		w[i] = o.AddWriter(graph.NodeID(i))
	}
	pa1 := o.AddPartial() // {a,b,c,d}
	for i := 0; i < 4; i++ {
		mustEdge(t, o, w[i], pa1, false)
	}
	er := o.AddReader(0, 4)
	gr := o.AddReader(0, 6)
	mustEdge(t, o, pa1, er, false)
	mustEdge(t, o, pa1, gr, false)
	mustEdge(t, o, w[4], gr, false)
	mustEdge(t, o, w[5], gr, false)
	return o, ag
}

func mustEdge(t *testing.T, o *Overlay, from, to NodeRef, neg bool) {
	t.Helper()
	if err := o.AddEdge(from, to, neg); err != nil {
		t.Fatal(err)
	}
}

func TestBasicConstructionAndSharingIndex(t *testing.T) {
	o, ag := figure1dLikeOverlay(t)
	if err := o.ValidateAgainst(ag, false); err != nil {
		t.Fatalf("validate: %v\n%s", err, o.DebugString())
	}
	// AG edges = 4 + 6 = 10; overlay edges = 4 (w->pa1) + 2 (pa1->r) +
	// 2 (direct) = 8. SI = 1 - 8/10 = 0.2.
	if o.NumEdges() != 8 {
		t.Fatalf("edges = %d, want 8", o.NumEdges())
	}
	if si := o.SharingIndex(); si < 0.199 || si > 0.201 {
		t.Fatalf("SI = %v, want 0.2", si)
	}
}

func TestAddWriterIdempotent(t *testing.T) {
	o := New(0)
	a := o.AddWriter(7)
	b := o.AddWriter(7)
	if a != b {
		t.Fatalf("AddWriter not idempotent: %d vs %d", a, b)
	}
	r1 := o.AddReader(0, 7)
	r2 := o.AddReader(0, 7)
	if r1 != r2 {
		t.Fatalf("AddReader not idempotent: %d vs %d", r1, r2)
	}
	if a == r1 {
		t.Fatal("writer and reader roles must be distinct nodes")
	}
}

func TestEdgeKindConstraints(t *testing.T) {
	o := New(0)
	w := o.AddWriter(0)
	r := o.AddReader(0, 1)
	p := o.AddPartial()
	if err := o.AddEdge(r, p, false); err == nil {
		t.Fatal("reader must not feed other nodes")
	}
	if err := o.AddEdge(p, w, false); err == nil {
		t.Fatal("writer must not have inputs")
	}
	if err := o.AddEdge(w, r, false); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdgeAndReroute(t *testing.T) {
	o := New(0)
	w := o.AddWriter(0)
	p1 := o.AddPartial()
	p2 := o.AddPartial()
	r := o.AddReader(0, 1)
	mustEdge(t, o, w, p1, false)
	mustEdge(t, o, p1, r, false)
	_ = p2
	if err := o.RerouteIn(w, p1, p2); err != nil {
		t.Fatal(err)
	}
	if o.HasEdge(w, p1) || !o.HasEdge(w, p2) {
		t.Fatalf("reroute failed:\n%s", o.DebugString())
	}
	if err := o.RemoveEdge(p1, r); err != nil {
		t.Fatal(err)
	}
	if o.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", o.NumEdges())
	}
	if err := o.RemoveEdge(p1, r); err == nil {
		t.Fatal("double remove should fail")
	}
}

func TestNegativeEdgeMultiplicity(t *testing.T) {
	// Overlay in the spirit of Figure 2(b): a partial node aggregates
	// {a,b,c}; reader b wants only {a,c}; give it the partial plus a
	// negative edge from b's writer.
	ag := bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		10: {0, 1, 2}, // reader 10 wants all three
		11: {0, 2},    // reader 11 wants a,c only
	})
	o := New(ag.NumEdges())
	wa, wb, wc := o.AddWriter(0), o.AddWriter(1), o.AddWriter(2)
	p := o.AddPartial()
	mustEdge(t, o, wa, p, false)
	mustEdge(t, o, wb, p, false)
	mustEdge(t, o, wc, p, false)
	r10, r11 := o.AddReader(0, 10), o.AddReader(0, 11)
	mustEdge(t, o, p, r10, false)
	mustEdge(t, o, p, r11, false)
	mustEdge(t, o, wb, r11, true) // negative: cancel b's contribution
	if err := o.ValidateAgainst(ag, false); err != nil {
		t.Fatalf("validate: %v\n%s", err, o.DebugString())
	}
	in := o.InputSet(r11)
	if in[1] != 0 || in[0] != 1 || in[2] != 1 {
		t.Fatalf("InputSet(r11) = %v", in)
	}
	st := o.ComputeStats()
	if st.NegEdges != 1 {
		t.Fatalf("NegEdges = %d, want 1", st.NegEdges)
	}
}

func TestValidateCatchesDuplicatePath(t *testing.T) {
	ag := bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		10: {0},
	})
	o := New(ag.NumEdges())
	w := o.AddWriter(0)
	p := o.AddPartial()
	r := o.AddReader(0, 10)
	mustEdge(t, o, w, p, false)
	mustEdge(t, o, p, r, false)
	mustEdge(t, o, w, r, false) // second path: duplicate contribution
	if err := o.ValidateAgainst(ag, false); err == nil {
		t.Fatal("duplicate-sensitive validation should fail with two paths")
	}
	// But a duplicate-insensitive aggregate accepts it.
	if err := o.ValidateAgainst(ag, true); err != nil {
		t.Fatalf("duplicate-insensitive validation should pass: %v", err)
	}
}

func TestValidateCatchesMissingAndForeignInputs(t *testing.T) {
	ag := bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		10: {0, 1},
	})
	o := New(ag.NumEdges())
	w0 := o.AddWriter(0)
	o.AddWriter(1)
	w2 := o.AddWriter(2)
	r := o.AddReader(0, 10)
	mustEdge(t, o, w0, r, false)
	if err := o.ValidateAgainst(ag, false); err == nil {
		t.Fatal("missing input 1 should fail validation")
	}
	mustEdge(t, o, o.Writer(1), r, false)
	if err := o.ValidateAgainst(ag, false); err != nil {
		t.Fatal(err)
	}
	mustEdge(t, o, w2, r, false)
	if err := o.ValidateAgainst(ag, false); err == nil {
		t.Fatal("foreign input 2 should fail validation")
	}
}

func TestRemoveNodeCascades(t *testing.T) {
	o, _ := figure1dLikeOverlay(t)
	gr := o.Reader(0, 6)
	if err := o.RemoveNode(gr); err != nil {
		t.Fatal(err)
	}
	if o.Reader(0, 6) != NoNode {
		t.Fatal("reader registration should be cleared")
	}
	// pa1 still serves er; GC must not remove it.
	if n := o.GCOrphans(); n != 0 {
		t.Fatalf("GC removed %d nodes, want 0", n)
	}
	er := o.Reader(0, 4)
	if err := o.RemoveNode(er); err != nil {
		t.Fatal(err)
	}
	// Now pa1 is an orphan.
	if n := o.GCOrphans(); n != 1 {
		t.Fatalf("GC removed %d nodes, want 1 (pa1)", n)
	}
}

func TestTopoOrderAndCycleDetection(t *testing.T) {
	o := New(0)
	w := o.AddWriter(0)
	p1 := o.AddPartial()
	p2 := o.AddPartial()
	r := o.AddReader(0, 1)
	mustEdge(t, o, w, p1, false)
	mustEdge(t, o, p1, p2, false)
	mustEdge(t, o, p2, r, false)
	order, err := o.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeRef]int{}
	for i, ref := range order {
		pos[ref] = i
	}
	if !(pos[w] < pos[p1] && pos[p1] < pos[p2] && pos[p2] < pos[r]) {
		t.Fatalf("topo order wrong: %v", order)
	}
	mustEdge(t, o, p2, p1, false) // cycle p1 -> p2 -> p1
	if _, err := o.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDepths(t *testing.T) {
	o := New(0)
	w := o.AddWriter(0)
	p1 := o.AddPartial()
	p2 := o.AddPartial()
	rShallow := o.AddReader(0, 1)
	rDeep := o.AddReader(0, 2)
	mustEdge(t, o, w, rShallow, false)
	mustEdge(t, o, w, p1, false)
	mustEdge(t, o, p1, p2, false)
	mustEdge(t, o, p2, rDeep, false)
	d := o.Depths()
	if got := d[ReaderID{Node: 1}]; got != 1 {
		t.Fatalf("depth(shallow) = %d, want 1", got)
	}
	if got := d[ReaderID{Node: 2}]; got != 3 {
		t.Fatalf("depth(deep) = %d, want 3", got)
	}
	avg, hist := o.DepthStats()
	if avg != 2 {
		t.Fatalf("avg depth = %v, want 2", avg)
	}
	if len(hist) != 4 || hist[3] != 2 || hist[1] != 1 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestCheckDecisions(t *testing.T) {
	o := New(0)
	w := o.AddWriter(0)
	p := o.AddPartial()
	r := o.AddReader(0, 1)
	mustEdge(t, o, w, p, false)
	mustEdge(t, o, p, r, false)
	// Default: writers push, others pull — consistent.
	if err := o.CheckDecisions(); err != nil {
		t.Fatal(err)
	}
	// Reader push with pull input — inconsistent.
	o.Node(r).Dec = Push
	if err := o.CheckDecisions(); err == nil {
		t.Fatal("push reader over pull partial should fail")
	}
	o.Node(p).Dec = Push
	if err := o.CheckDecisions(); err != nil {
		t.Fatal(err)
	}
	// Writer marked pull — invalid.
	o.Node(w).Dec = Pull
	if err := o.CheckDecisions(); err == nil {
		t.Fatal("pull writer should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	o, ag := figure1dLikeOverlay(t)
	c := o.Clone()
	gr := c.Reader(0, 6)
	if err := c.RemoveNode(gr); err != nil {
		t.Fatal(err)
	}
	if err := o.ValidateAgainst(ag, false); err != nil {
		t.Fatalf("mutating clone broke original: %v", err)
	}
	if o.Reader(0, 6) == NoNode {
		t.Fatal("original lost its reader")
	}
}

func TestStats(t *testing.T) {
	o, _ := figure1dLikeOverlay(t)
	s := o.ComputeStats()
	if s.Writers != 6 || s.Readers != 2 || s.Partials != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Edges != 8 || s.AGEdges != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDepth != 2 {
		t.Fatalf("max depth = %d, want 2", s.MaxDepth)
	}
}

func TestKindAndDecisionStrings(t *testing.T) {
	if WriterNode.String() != "writer" || ReaderNode.String() != "reader" ||
		PartialNode.String() != "partial" {
		t.Fatal("kind strings wrong")
	}
	if Push.String() != "push" || Pull.String() != "pull" {
		t.Fatal("decision strings wrong")
	}
	if !strings.Contains(NodeKind(9).String(), "kind") {
		t.Fatal("unknown kind should stringify")
	}
}
