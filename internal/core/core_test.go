package core

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
)

// paperGraph builds the Figure 1(a) data graph with the input lists of
// Figure 1(b) under N(x) = {y | y -> x}.
func paperGraph() *graph.Graph {
	g := graph.NewWithNodes(7)
	inputs := map[graph.NodeID][]graph.NodeID{
		0: {2, 3, 4, 5},
		1: {3, 4, 5},
		2: {0, 1, 3, 4, 5},
		3: {0, 1, 2, 4, 5},
		4: {0, 1, 2, 3},
		5: {0, 1, 2, 3, 4},
		6: {0, 1, 2, 3, 4, 5},
	}
	for r, ws := range inputs {
		for _, w := range ws {
			_ = g.AddEdge(w, r)
		}
	}
	return g
}

func writeFigure1(t *testing.T, s *System) {
	t.Helper()
	latest := map[graph.NodeID]int64{0: 4, 1: 7, 2: 9, 3: 3, 4: 1, 5: 6, 6: 5}
	ts := int64(0)
	for v, x := range latest {
		if err := s.Engine().Write(v, x, ts); err != nil {
			t.Fatal(err)
		}
		ts++
	}
}

func TestCompileAndQueryPaperExample(t *testing.T) {
	for _, algo := range []string{Baseline, construct.AlgVNMA, construct.AlgVNMN, construct.AlgIOB, ""} {
		g := paperGraph()
		s, err := Compile(g, Query{Aggregate: agg.Sum{}}, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%q: %v", algo, err)
		}
		writeFigure1(t, s)
		want := map[graph.NodeID]int64{0: 19, 1: 10, 4: 23, 6: 30}
		for v, w := range want {
			got, err := s.eng.Read(v)
			if err != nil {
				t.Fatalf("%q: %v", algo, err)
			}
			if got.Scalar != w {
				t.Fatalf("%q: read(%d) = %v, want %d", algo, v, got, w)
			}
		}
	}
}

func TestAutoAlgorithmSelection(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Algorithm != construct.AlgVNMN {
		t.Fatalf("sum should auto-select vnmn, got %s", s.Stats().Algorithm)
	}
	s, err = Compile(paperGraph(), Query{Aggregate: agg.Max{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Algorithm != construct.AlgVNMD {
		t.Fatalf("max should auto-select vnmd, got %s", s.Stats().Algorithm)
	}
}

func TestLegalityChecks(t *testing.T) {
	if _, err := Compile(paperGraph(), Query{Aggregate: agg.Max{}},
		Options{Algorithm: construct.AlgVNMN}); err == nil {
		t.Fatal("vnmn with max should be rejected (not subtractable)")
	}
	if _, err := Compile(paperGraph(), Query{Aggregate: agg.Sum{}},
		Options{Algorithm: construct.AlgVNMD}); err == nil {
		t.Fatal("vnmd with sum should be rejected (duplicate-sensitive)")
	}
	if _, err := Compile(paperGraph(), Query{}, Options{}); err == nil {
		t.Fatal("nil aggregate should be rejected")
	}
}

func TestContinuousForcesPush(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}, Continuous: true},
		Options{Algorithm: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Mode != ModeAllPush {
		t.Fatalf("continuous query mode = %s, want all-push", s.Stats().Mode)
	}
}

func TestModes(t *testing.T) {
	for _, mode := range []Mode{ModeDataflow, ModeAllPush, ModeAllPull} {
		g := paperGraph()
		s, err := Compile(g, Query{Aggregate: agg.Sum{}},
			Options{Algorithm: construct.AlgVNMA, Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		writeFigure1(t, s)
		got, err := s.eng.Read(6)
		if err != nil {
			t.Fatal(err)
		}
		if got.Scalar != 30 {
			t.Fatalf("%s: read(g) = %v, want 30", mode, got)
		}
	}
}

func TestStructuralEdgeAddition(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}},
		Options{Algorithm: construct.AlgIOB})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Stats().Maintainable {
		t.Fatal("IOB overlay should be maintainable")
	}
	writeFigure1(t, s)
	// b currently has N(b) = {d,e,f} -> 3+1+6 = 10. Add edge c -> b.
	if err := s.AddGraphEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.eng.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 19 { // 10 + 9 (c's latest value)
		t.Fatalf("read(b) after edge add = %v, want 19", got)
	}
}

func TestStructuralEdgeRemoval(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}},
		Options{Algorithm: construct.AlgIOB})
	if err != nil {
		t.Fatal(err)
	}
	writeFigure1(t, s)
	// Remove d -> a: N(a) loses d. 19 - 3 = 16.
	if err := s.RemoveGraphEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	got, err := s.eng.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 16 {
		t.Fatalf("read(a) after edge removal = %v, want 16", got)
	}
}

func TestStructuralNodeLifecycle(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}},
		Options{Algorithm: construct.AlgIOB})
	if err != nil {
		t.Fatal(err)
	}
	writeFigure1(t, s)
	v, err := s.AddGraphNode()
	if err != nil {
		t.Fatal(err)
	}
	// New node writes into a's neighborhood.
	if err := s.AddGraphEdge(v, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Engine().Write(v, 100, 50); err != nil {
		t.Fatal(err)
	}
	got, _ := s.eng.Read(0)
	if got.Scalar != 119 {
		t.Fatalf("read(a) with new writer = %v, want 119", got)
	}
	// Remove the node again.
	if err := s.RemoveGraphNode(v); err != nil {
		t.Fatal(err)
	}
	got, _ = s.eng.Read(0)
	if got.Scalar != 19 {
		t.Fatalf("read(a) after node removal = %v, want 19", got)
	}
}

func TestRecompileFallbackForNegativeEdgeOverlays(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}},
		Options{Algorithm: construct.AlgVNMN})
	if err != nil {
		t.Fatal(err)
	}
	// VNMN overlays may contain negative edges; maintainable or not, a
	// structural change must leave the system correct (falling back to
	// recompilation when needed).
	if err := s.AddGraphEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	writeFigure1(t, s)
	got, err := s.eng.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != 19 {
		t.Fatalf("read(b) = %v, want 19", got)
	}
}

func TestRebalanceAdaptsToObservedWorkload(t *testing.T) {
	g := paperGraph()
	// Plan for a write-heavy estimate so most nodes start pull.
	s, err := Compile(g, Query{Aggregate: agg.Sum{}}, Options{Algorithm: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reoptimize(dataflow.Uniform(g.MaxID(), 0.01, 100)); err != nil {
		t.Fatal(err)
	}
	writeFigure1(t, s)
	// Observed workload is read-heavy.
	for i := 0; i < 2000; i++ {
		if _, err := s.eng.Read(6); err != nil {
			t.Fatal(err)
		}
	}
	flips, err := s.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if flips == 0 {
		t.Fatal("expected adaptive flips under read-heavy observations")
	}
	// Results stay correct after the flip + install.
	got, _ := s.eng.Read(6)
	if got.Scalar != 30 {
		t.Fatalf("read(g) after rebalance = %v, want 30", got)
	}
}

func TestReoptimize(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}}, Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		t.Fatal(err)
	}
	writeFigure1(t, s)
	wl := dataflow.Uniform(g.MaxID(), 100, 0.01) // read-heavy now
	if err := s.Reoptimize(wl); err != nil {
		t.Fatal(err)
	}
	got, _ := s.eng.Read(6)
	if got.Scalar != 30 {
		t.Fatalf("read(g) after reoptimize = %v, want 30", got)
	}
}
