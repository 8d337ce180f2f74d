package construct

import (
	"fmt"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// TestMaintainableMatchesMaintainer: Maintainable, which answers from a
// Topology with stamp arrays, says yes exactly where NewMaintainer, which
// builds every writer set to find out, succeeds. The cases are every
// algorithm on the benchmark graphs and on eight seeds of a smaller social
// graph, the same overlays after Maintainer edits left dead slots in them,
// and hand-built overlays with a duplicate path, a parallel edge, a
// negative edge and cycles.
func TestMaintainableMatchesMaintainer(t *testing.T) {
	answers := map[bool]int{}
	check := func(name string, ov *overlay.Overlay) {
		t.Helper()
		_, err := NewMaintainer(ov)
		if got, want := Maintainable(ov.Flatten()), err == nil; got != want {
			t.Fatalf("%s: Maintainable = %v, NewMaintainer error = %v", name, got, err)
		}
		answers[err == nil]++
	}

	type fixture struct {
		name string
		g    *graph.Graph
		nbrs []graph.Neighborhood
	}
	var graphs []fixture
	for _, bg := range benchGraphs {
		graphs = append(graphs, fixture{bg.name, bg.gen(), []graph.Neighborhood{graph.InNeighbors{}}})
	}
	for seed := int64(1); seed <= 8; seed++ {
		graphs = append(graphs, fixture{fmt.Sprintf("social200/seed=%d", seed), workload.SocialGraph(200, 6, seed),
			[]graph.Neighborhood{graph.InNeighbors{}, graph.KHopIn{K: 2}}})
	}
	for _, f := range graphs {
		for _, nbr := range f.nbrs {
			ag := bipartite.Build(f.g, nbr, nil)
			for _, alg := range []string{AlgIOB, AlgVNM, AlgVNMA, AlgVNMN, AlgVNMD} {
				name := fmt.Sprintf("%s/%s/%s", f.name, nbr.Name(), alg)
				res, err := Build(alg, ag, Config{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(name, res.Overlay)
				if m, err := NewMaintainer(res.Overlay); err == nil {
					editWithMaintainer(t, name, m, f.g)
					check(name+"/edited", m.Overlay())
					duplicateOneInput(t, name, m.Overlay())
					check(name+"/edited+duplicate", m.Overlay())
				}
			}
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("fixture: the overlays drew only one answer (%v)", answers)
	}

	accepted := map[string]bool{"clean": true, "clean+direct": true, "dead slots": true}
	for _, c := range handBuilt() {
		check(c.name, c.ov)
		if got := Maintainable(c.ov.Flatten()); got != accepted[c.name] {
			t.Errorf("%s: Maintainable = %v, want %v", c.name, got, accepted[c.name])
		}
	}
}

// editWithMaintainer removes a few data-graph nodes and reader inputs and
// adds a few, through the maintainer, leaving dead slots behind.
func editWithMaintainer(t *testing.T, name string, m *Maintainer, g *graph.Graph) {
	t.Helper()
	for v := graph.NodeID(0); v < 30; v += 6 {
		if err := m.RemoveNode(v); err != nil {
			t.Fatalf("%s: remove node %d: %v", name, v, err)
		}
	}
	for r := graph.NodeID(31); r < 60; r += 4 {
		if m.Overlay().Reader(0, r) == overlay.NoNode {
			continue
		}
		in := g.In(r)
		if len(in) > 2 {
			if err := m.RemoveReaderInputs(0, r, in[:2]); err != nil {
				t.Fatalf("%s: remove inputs of %d: %v", name, r, err)
			}
		}
		if err := m.AddReaderInputs(0, r, []graph.NodeID{61, 62, 63, 64, 65}); err != nil {
			t.Fatalf("%s: add inputs of %d: %v", name, r, err)
		}
	}
	if m.Overlay().NumNodes() == m.Overlay().Len() {
		t.Fatalf("%s: fixture: the edits left no dead slot", name)
	}
}

// duplicateOneInput gives a reader fed through a partial a second, direct
// edge from one of the writers behind that partial: a duplicate path.
func duplicateOneInput(t *testing.T, name string, ov *overlay.Overlay) {
	t.Helper()
	for _, r := range ov.Readers() {
		for _, e := range ov.Node(r).In {
			p := ov.Node(e.Peer)
			if p.Kind != overlay.PartialNode || len(p.In) == 0 {
				continue
			}
			if err := ov.AddEdge(p.In[0].Peer, r, false); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return
		}
	}
	t.Fatalf("%s: fixture: no reader is fed through a partial", name)
}

// handBuilt returns small overlays, each with one reason to be refused
// beside a clean one: writers a, b, c feed partial p, which feeds readers 10
// and 11.
func handBuilt() []struct {
	name string
	ov   *overlay.Overlay
} {
	type fx struct {
		ov                *overlay.Overlay
		a, b, p, r10, r11 overlay.NodeRef
	}
	var cases []struct {
		name string
		ov   *overlay.Overlay
	}
	add := func(name string, edit func(f fx)) {
		ov := overlay.New(5)
		f := fx{ov: ov, a: ov.AddWriter(0), b: ov.AddWriter(1)}
		c := ov.AddWriter(2)
		f.p = ov.AddPartial()
		for _, w := range []overlay.NodeRef{f.a, f.b, c} {
			_ = ov.AddEdge(w, f.p, false)
		}
		f.r10, f.r11 = ov.AddReader(0, 10), ov.AddReader(0, 11)
		_ = ov.AddEdge(f.p, f.r10, false)
		_ = ov.AddEdge(f.p, f.r11, false)
		edit(f)
		cases = append(cases, struct {
			name string
			ov   *overlay.Overlay
		}{name, ov})
	}
	add("clean", func(fx) {})
	add("clean+direct", func(f fx) { _ = f.ov.AddEdge(f.a, f.ov.AddReader(0, 12), false) })
	add("duplicate path", func(f fx) { _ = f.ov.AddEdge(f.a, f.r10, false) })
	add("duplicate through two partials", func(f fx) {
		q := f.ov.AddPartial()
		_ = f.ov.AddEdge(f.b, q, false)
		_ = f.ov.AddEdge(q, f.r11, false)
	})
	add("parallel edge", func(f fx) { _ = f.ov.AddEdge(f.p, f.r10, false) })
	add("negative edge", func(f fx) { _ = f.ov.AddEdge(f.b, f.r11, true) })
	add("cycle reached from a writer", func(f fx) {
		q, s := f.ov.AddPartial(), f.ov.AddPartial()
		_ = f.ov.AddEdge(f.a, q, false)
		_ = f.ov.AddEdge(q, s, false)
		_ = f.ov.AddEdge(s, q, false)
		_ = f.ov.AddEdge(s, f.r11, false)
	})
	add("cycle no writer reaches", func(f fx) {
		q, s := f.ov.AddPartial(), f.ov.AddPartial()
		_ = f.ov.AddEdge(q, s, false)
		_ = f.ov.AddEdge(s, q, false)
		_ = f.ov.AddEdge(s, f.r10, false)
	})
	add("dead slots", func(f fx) {
		_ = f.ov.RemoveNode(f.r10)
		_ = f.ov.RemoveNode(f.a)
		_ = f.ov.AddEdge(f.b, f.ov.AddReader(0, 10), false)
	})
	return cases
}
