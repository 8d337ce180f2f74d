package eagr

import (
	"errors"
	"testing"
)

// ring builds a small graph where node i follows (receives content from)
// nodes i-1 and i+1.
func ring(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		_ = g.AddEdge(NodeID((i+1)%n), NodeID(i))
		_ = g.AddEdge(NodeID((i+n-1)%n), NodeID(i))
	}
	return g
}

// one registers a single query on a fresh session over g.
func one(t *testing.T, g *Graph, spec QuerySpec, opts ...Options) (*Session, *Query) {
	t.Helper()
	sess, err := Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sess, q
}

func TestOpenDefaultsAndReadWrite(t *testing.T) {
	sess, q := one(t, ring(8), QuerySpec{Aggregate: "sum"})
	for i := 0; i < 8; i++ {
		if err := sess.Write(NodeID(i), int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// N(3) = {2, 4}: sum = 6.
	got, err := q.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 6 {
		t.Fatalf("read(3) = %v, want 6", got)
	}
}

func TestOpenTopKAndWindow(t *testing.T) {
	sess, q := one(t, ring(6), QuerySpec{Aggregate: "topk(1)", WindowTuples: 3})
	// Node 1 and 3 feed node 2. Write 7 twice on node 1.
	_ = sess.Write(1, 7, 0)
	_ = sess.Write(1, 7, 1)
	_ = sess.Write(3, 9, 2)
	got, err := q.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.List) != 1 || got.List[0] != 7 {
		t.Fatalf("top1 = %v, want [7]", got)
	}
}

func TestOpenTwoHop(t *testing.T) {
	// Chain 0 -> 1 -> 2: with Hops=2, N(2) = {1, 0}.
	g := NewGraph(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	sess, q := one(t, g, QuerySpec{Aggregate: "sum", Hops: 2})
	_ = sess.Write(0, 5, 0)
	_ = sess.Write(1, 7, 1)
	got, err := q.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 12 {
		t.Fatalf("2-hop sum = %v, want 12", got)
	}
}

func TestOpenOptionsAndStats(t *testing.T) {
	_, q := one(t, ring(10), QuerySpec{Aggregate: "max"}, Options{Algorithm: "iob", Mode: "all-push"})
	st := q.Stats()
	if st.Algorithm != "iob" || st.Mode != "all-push" {
		t.Fatalf("stats = %+v", st)
	}
	if st.Readers != 10 || st.Writers == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Shared != 1 {
		t.Fatalf("unshared query reports Shared=%d, want 1", st.Shared)
	}
}

func TestRegisterErrors(t *testing.T) {
	g := ring(4)
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "nope"}); !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("unknown aggregate: err = %v, want ErrIncompatibleQuery", err)
	}
	if _, err := Open(g, Options{}, Options{}); err == nil {
		t.Fatal("two Options values should fail")
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "max"}, Options{Algorithm: "vnmn"}); !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("illegal algorithm/aggregate: err = %v, want ErrIncompatibleQuery", err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum", WindowTuples: 3, WindowTime: 10}); !errors.Is(err, ErrConflictingWindow) {
		t.Fatalf("conflicting windows: err = %v, want ErrConflictingWindow", err)
	}
}

func TestReadUnknownNodeTyped(t *testing.T) {
	g := NewGraph(2)
	_ = g.AddEdge(1, 0)
	_, q := one(t, g, QuerySpec{Aggregate: "sum"})
	// Node 99 was never added to the graph, so no overlay reader exists.
	if _, err := q.Read(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("read of unknown node: err = %v, want ErrUnknownNode", err)
	}
	sess := q.sess
	if err := sess.RemoveNode(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("remove of missing node: err = %v, want ErrUnknownNode", err)
	}
}

func TestDynamicEdgesThroughFacade(t *testing.T) {
	sess, q := one(t, ring(6), QuerySpec{Aggregate: "sum"}, Options{Algorithm: "iob"})
	for i := 0; i < 6; i++ {
		_ = sess.Write(NodeID(i), 1, int64(i))
	}
	before, _ := q.Read(0) // N(0) = {1, 5}: 2
	if before.Scalar != 2 {
		t.Fatalf("read(0) = %v, want 2", before)
	}
	if err := sess.AddEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := q.Read(0)
	if after.Scalar != 3 {
		t.Fatalf("read(0) after AddEdge = %v, want 3", after)
	}
	if err := sess.RemoveEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	again, _ := q.Read(0)
	if again.Scalar != 2 {
		t.Fatalf("read(0) after RemoveEdge = %v, want 2", again)
	}
}

func TestCustomAggregateThroughFacade(t *testing.T) {
	RegisterAggregate("first42", func(int) Aggregate { return firstAgg{} })
	sess, err := Open(ring(4), Options{Algorithm: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(QuerySpec{Aggregate: "first42"})
	if err != nil {
		t.Fatal(err)
	}
	_ = sess.Write(1, 9, 0)
	got, err := q.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Valid || got.Scalar != 42 {
		t.Fatalf("custom aggregate = %v, want 42", got)
	}
}

// firstAgg is a toy user-defined aggregate exercising the public API.
type firstAgg struct{}

func (firstAgg) Name() string      { return "first42" }
func (firstAgg) Props() Properties { return Properties{} }
func (firstAgg) NewPAO() PAO       { return &firstPAO{} }

type firstPAO struct{ n int64 }

func (p *firstPAO) AddValue(int64)    { p.n++ }
func (p *firstPAO) RemoveValue(int64) { p.n-- }
func (p *firstPAO) Merge(o PAO)       { p.n += o.(*firstPAO).n }
func (p *firstPAO) Unmerge(o PAO)     { p.n -= o.(*firstPAO).n }
func (p *firstPAO) Finalize() Result  { return Result{Scalar: 42, Valid: p.n > 0} }
func (p *firstPAO) Reset()            { p.n = 0 }
