package topo

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/simtest"
)

func TestParseCanonicalizesSpellings(t *testing.T) {
	cases := map[string]string{
		"density":         "density",
		" Density ":       "density",
		"triangles":       "triangles",
		"triangle":        "triangles",
		"TRI":             "triangles",
		"wedges":          "wedges",
		"wedge":           "wedges",
		"ego-betweenness": "ego-betweenness",
		"egobetweenness":  "ego-betweenness",
		"ego_betweenness": "ego-betweenness",
		"betweenness":     "ego-betweenness",
		"EBC":             "ego-betweenness",
	}
	for in, want := range cases {
		s, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if s.Name != want {
			t.Fatalf("Parse(%q) = %q, want %q", in, s.Name, want)
		}
		// Closed loop: the canonical rendering parses back to itself, and
		// the compile key only depends on the canonical form.
		again, err := Parse(s.String())
		if err != nil || again != s {
			t.Fatalf("Parse(%q).String()=%q did not round-trip: %v %v", in, s.String(), again, err)
		}
		if s.Key(7) != (Spec{Name: want}).Key(7) {
			t.Fatalf("Parse(%q) key %q differs from canonical", in, s.Key(7))
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{"", "sum", "count", "density(3)", "triangles(", "density()", "wedges(x)", "nope"} {
		if _, err := Parse(in); err == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	want := []string{"density", "ego-betweenness", "triangles", "wedges"}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("Names() missing %q: %v", w, names)
		}
	}
}

// buildMirror folds a directed edge list into a fresh mirror via the
// incremental path.
func buildMirror(n int, edges [][2]graph.NodeID) *Mirror {
	m := NewMirror(n)
	for v := 0; v < n; v++ {
		m.NodeAdded(graph.NodeID(v))
	}
	for _, e := range edges {
		m.EdgeDelta(e[0], e[1], true)
	}
	return m
}

func TestMirrorTriangleBasics(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 off node 0; edge 1→2 doubled in the
	// other direction to exercise the directed-pair folding.
	m := buildMirror(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 1}, {2, 0}, {0, 3}})
	wantTri := []int64{1, 1, 1, 0}
	wantDeg := []int{3, 2, 2, 1}
	for v := range wantTri {
		if got := m.Triangles(graph.NodeID(v)); got != wantTri[v] {
			t.Fatalf("tri[%d] = %d, want %d", v, got, wantTri[v])
		}
		if got := m.Degree(graph.NodeID(v)); got != wantDeg[v] {
			t.Fatalf("deg[%d] = %d, want %d", v, got, wantDeg[v])
		}
	}
	// Removing ONE direction of the doubled 1~2 pair keeps the undirected
	// edge, so nothing changes.
	if _, changed := m.EdgeDelta(2, 1, false); changed {
		t.Fatal("removing one of two directions reported a structural change")
	}
	if m.Triangles(0) != 1 {
		t.Fatalf("tri[0] after half-removal = %d, want 1", m.Triangles(0))
	}
	// Removing the second direction kills the triangle for all three.
	if _, changed := m.EdgeDelta(1, 2, false); !changed {
		t.Fatal("removing the last direction reported no change")
	}
	for v := 0; v < 3; v++ {
		if got := m.Triangles(graph.NodeID(v)); got != 0 {
			t.Fatalf("tri[%d] after edge removal = %d, want 0", v, got)
		}
	}
}

func TestMirrorSelfLoopIgnored(t *testing.T) {
	m := buildMirror(2, [][2]graph.NodeID{{0, 0}, {0, 1}})
	if m.Degree(0) != 1 || m.Connected(0, 0) {
		t.Fatalf("self-loop leaked into the mirror: deg=%d", m.Degree(0))
	}
}

func TestMirrorNodeRemoved(t *testing.T) {
	// K4 on 0..3: every ego has C(3,2)=3 triangles.
	m := buildMirror(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	for v := 0; v < 4; v++ {
		if got := m.Triangles(graph.NodeID(v)); got != 3 {
			t.Fatalf("K4 tri[%d] = %d, want 3", v, got)
		}
	}
	affected := m.NodeRemoved(3)
	if len(affected) != 3 {
		t.Fatalf("NodeRemoved affected = %v, want the 3 former neighbors", affected)
	}
	if m.Alive(3) {
		t.Fatal("removed node still alive")
	}
	// Remaining triangle 0-1-2.
	for v := 0; v < 3; v++ {
		if got := m.Triangles(graph.NodeID(v)); got != 1 {
			t.Fatalf("post-removal tri[%d] = %d, want 1", v, got)
		}
		if got := m.Degree(graph.NodeID(v)); got != 2 {
			t.Fatalf("post-removal deg[%d] = %d, want 2", v, got)
		}
	}
}

func TestEgoBetweennessKnownShapes(t *testing.T) {
	// Star: center 0 with 4 leaves. Every leaf pair is non-adjacent with no
	// common neighbor besides the ego, so EB(0) = C(4,2) = 6 (in Scale
	// units); leaves have degree 1, EB 0.
	star := buildMirror(5, [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 0}, {4, 0}})
	if got := star.egoBetweenness(0); got != 6*Scale {
		t.Fatalf("star EB(center) = %d, want %d", got, 6*Scale)
	}
	if got := star.egoBetweenness(1); got != 0 {
		t.Fatalf("star EB(leaf) = %d, want 0", got)
	}
	// Complete graph: every neighbor pair adjacent → EB 0 everywhere.
	k4 := buildMirror(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	for v := 0; v < 4; v++ {
		if got := k4.egoBetweenness(graph.NodeID(v)); got != 0 {
			t.Fatalf("K4 EB(%d) = %d, want 0", v, got)
		}
	}
	// Diamond: 0~1, 0~2, 1~2, 1~3, 2~3. Ego 1 has N={0,2,3}; pairs:
	// {0,2} adjacent, {2,3} adjacent, {0,3} non-adjacent with common
	// neighbor 2 inside N(1) → share 1/(1+1). EB(1) = Scale/2.
	d := buildMirror(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}})
	if got := d.egoBetweenness(1); got != Scale/2 {
		t.Fatalf("diamond EB(1) = %d, want %d", got, Scale/2)
	}
}

func TestAggregateValues(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 off 0: ego 0 has k=3, T=1.
	m := buildMirror(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	if got := (Density{}).Value(m, 0).Scalar; got != 1*2*Scale/(3*2) {
		t.Fatalf("density(0) = %d", got)
	}
	if got := (Wedges{}).Value(m, 0).Scalar; got != 3 {
		t.Fatalf("wedges(0) = %d", got)
	}
	if got := (Triangles{}).Value(m, 0).Scalar; got != 1 {
		t.Fatalf("triangles(0) = %d", got)
	}
	// Degenerate ego: fewer than 2 neighbors → density 0 but Valid.
	r := (Density{}).Value(m, 3)
	if !r.Valid || r.Scalar != 0 {
		t.Fatalf("density(pendant) = %+v", r)
	}
}

func newTestEngine(n int, edges [][2]graph.NodeID) *Engine {
	g := graph.NewWithNodes(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return NewEngine(g)
}

func TestEngineViewSharingAndRelease(t *testing.T) {
	e := newTestEngine(3, [][2]graph.NodeID{{0, 1}})
	s := Spec{Name: "density"}
	v1, err := e.Acquire(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.Acquire(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("equal specs did not share one view")
	}
	if v1.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", v1.Refs())
	}
	if e.Views() != 1 {
		t.Fatalf("views = %d, want 1", e.Views())
	}
	v1.Release()
	if e.Views() != 1 {
		t.Fatal("view vanished while referenced")
	}
	v2.Release()
	if e.Views() != 0 {
		t.Fatal("view leaked after last release")
	}
}

func TestEngineIncrementalDeliveryAndRead(t *testing.T) {
	e := newTestEngine(4, [][2]graph.NodeID{{0, 1}, {1, 2}})
	vw, err := e.Acquire(Spec{Name: "triangles"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := vw.Subscribe(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Closing the triangle 0-1-2 must notify ego 1 with T=1.
	e.EdgeAdded(2, 0, 42)
	select {
	case u := <-sub.Updates():
		if u.Node != 1 || u.Result.Scalar != 1 || u.TS != 42 {
			t.Fatalf("update = %+v", u)
		}
	default:
		t.Fatal("no update delivered for the closing edge")
	}
	if r, err := vw.Read(0); err != nil || r.Scalar != 1 {
		t.Fatalf("Read(0) = %+v, %v", r, err)
	}
	// Dead node reads fail with the typed error.
	e.NodeRemoved(3, 43)
	if _, err := vw.Read(3); !errors.Is(err, exec.ErrUnknownNode) {
		t.Fatalf("Read(dead) err = %v", err)
	}
	vw.Unsubscribe(sub)
	if _, ok := <-sub.Updates(); ok {
		t.Fatal("channel still open after Unsubscribe")
	}
}

// checkBetweennessDeliversAtEvent grows a star 0–{1,2} by a third leaf
// under an ego-betweenness view with the given window and requires the
// refreshed EB(0) = C(3,2)·Scale to arrive at the edge event's ts and to be
// what Read serves — there is no schedule, whatever the window.
func checkBetweennessDeliversAtEvent(t *testing.T, window int64) {
	t.Helper()
	e := newTestEngine(5, [][2]graph.NodeID{{1, 0}, {2, 0}})
	vw, err := e.Acquire(Spec{Name: "ego-betweenness"}, window)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := vw.Subscribe(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Star grows a third leaf: EB(0) goes from C(2,2)=1 to C(3,2)=3.
	e.EdgeAdded(3, 0, 7)
	select {
	case u := <-sub.Updates():
		if u.Node != 0 || u.Result.Scalar != 3*Scale || u.TS != 7 {
			t.Fatalf("update = %+v, want EB(0) = %d at ts 7", u, 3*Scale)
		}
	default:
		t.Fatal("no delivery at the edge event")
	}
	if r, err := vw.Read(0); err != nil || r.Scalar != 3*Scale {
		t.Fatalf("Read(0) = %+v, %v; want %d", r, err, 3*Scale)
	}
}

// TestEngineScheduledRecompute: a windowed ego-betweenness view waits for
// no watermark tick — it delivers and reads the refreshed value at the edge
// event — and reads what a windowless one does.
func TestEngineScheduledRecompute(t *testing.T) {
	checkBetweennessDeliversAtEvent(t, 10)
	e := newTestEngine(4, [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 0}})
	windowed, err := e.Acquire(Spec{Name: "ego-betweenness"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	windowless, err := e.Acquire(Spec{Name: "ego-betweenness"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if windowed.Refs() != 2 {
		t.Fatalf("refs = %d, want one view shared by both", windowed.Refs())
	}
	for v := graph.NodeID(0); v < 4; v++ {
		a, aerr := windowed.Read(v)
		b, berr := windowless.Read(v)
		if aerr != nil || berr != nil || !a.Eq(b) || a.Scalar != e.mirror.egoBetweenness(v) {
			t.Fatalf("EB(%d): windowed %+v/%v, windowless %+v/%v", v, a, aerr, b, berr)
		}
	}
}

// TestEngineWindowlessRecomputeDeliversOnChurn: a windowless ego-betweenness
// view delivers the refreshed value at the edge event's ts.
func TestEngineWindowlessRecomputeDeliversOnChurn(t *testing.T) {
	checkBetweennessDeliversAtEvent(t, 0)
}

// TestBetweennessMatchesOracleUnderChurn drives the op mix of
// TestMirrorMatchesOracleUnderChurn (edge add/remove, node removal, node-id
// reuse) through the engine with ego-betweenness views standing: one from
// the start, a second acquired midway, both released and one re-acquired
// later. After every burst each view's Read of every alive ego must equal
// the simtest model's recompute.
func TestBetweennessMatchesOracleUnderChurn(t *testing.T) {
	const n = 24
	spec := Spec{Name: "ego-betweenness"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.NewWithNodes(n)
		e := NewEngine(g)
		first, err := e.Acquire(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		views := []*View{first}
		alive := func() []graph.NodeID {
			var out []graph.NodeID
			for v := 0; v < g.MaxID(); v++ {
				if g.Alive(graph.NodeID(v)) {
					out = append(out, graph.NodeID(v))
				}
			}
			return out
		}
		for step := 0; step < 400; step++ {
			nodes := alive()
			u, w := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			switch op := rng.Intn(100); {
			case op < 55:
				if g.AddEdge(u, w) == nil {
					e.EdgeAdded(u, w, int64(step))
				}
			case op < 85:
				if g.RemoveEdge(u, w) == nil {
					e.EdgeRemoved(u, w, int64(step))
				}
			case op < 93:
				v := g.AddNode()
				e.NodeAdded(v, int64(step))
			default:
				if len(nodes) > 4 && g.RemoveNode(u) == nil {
					e.NodeRemoved(u, int64(step))
				}
			}
			switch step {
			case 150: // a second view while the first keeps the column
				vw, err := e.Acquire(spec, 10)
				if err != nil {
					t.Fatal(err)
				}
				views = append(views, vw)
			case 250: // the last view goes and comes back
				views[0].Release()
				views[1].Release()
				vw, err := e.Acquire(spec, 10)
				if err != nil {
					t.Fatal(err)
				}
				views = []*View{vw}
			}
			if step%25 != 0 && step != 399 {
				continue
			}
			ref := simtest.NewModel(g)
			for _, v := range ref.Nodes() {
				want := ref.Eval(simtest.Spec{Aggregate: "ego-betweenness"}, v).Scalar
				for i, vw := range views {
					if r, err := vw.Read(v); err != nil || r.Scalar != want {
						t.Fatalf("seed %d step %d view %d: EB(%d) = %+v/%v, want %d", seed, step, i, v, r, err, want)
					}
				}
			}
		}
	}
}

func TestSubscribeUnknownNode(t *testing.T) {
	e := newTestEngine(2, nil)
	vw, err := e.Acquire(Spec{Name: "density"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vw.Subscribe(4, 99); !errors.Is(err, exec.ErrUnknownNode) {
		t.Fatalf("Subscribe(unknown) err = %v", err)
	}
}
