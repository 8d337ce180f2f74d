package core

import (
	"bytes"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// shapeGraph is big and clustered enough that VNM_N mines partials and
// negative edges on it, so "same overlay" is a statement about a few
// hundred nodes and not about direct edges.
func shapeGraph() *graph.Graph { return workload.SocialGraph(300, 8, 7) }

func mustAgg(t *testing.T, name string) agg.Aggregate {
	t.Helper()
	a, err := agg.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func overlayBytes(t *testing.T, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := overlay.Thaw(s.Engine().Topology()).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertFreshMine fails unless att's overlay — structure, in-edge order and
// decisions — serializes to the bytes of a standalone compile of the same
// query over a copy of the multi system's current graph: whatever the
// attachment's overlay went through, it is what mining would produce now.
func assertFreshMine(t *testing.T, m *MultiSystem, att *Attachment, q Query, opts Options, what string) {
	t.Helper()
	fresh, err := Compile(m.Graph().Clone(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(overlayBytes(t, att.System()), overlayBytes(t, fresh)) {
		t.Fatalf("%s: overlay differs from a fresh mine over the current graph", what)
	}
}

func assertMinedCloned(t *testing.T, m *MultiSystem, mined, cloned int64, when string) {
	t.Helper()
	if m.OverlaysMined() != mined || m.OverlaysCloned() != cloned {
		t.Fatalf("%s: mined=%d cloned=%d, want %d/%d", when, m.OverlaysMined(), m.OverlaysCloned(), mined, cloned)
	}
}

func attach(t *testing.T, m *MultiSystem, key string, q Query, opts Options) *Attachment {
	t.Helper()
	a, err := m.Attach(key, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestShapeCacheSecondRegisterClones: sum and topk(10) are one VNM_N shape;
// the second registration mines nothing, copies nothing — its engine's
// Topology shares the first one's edge arrays and holds decisions of its
// own — and still gets the mined overlay bit for bit (under its own cost
// model's decisions). max is another shape.
func TestShapeCacheSecondRegisterClones(t *testing.T) {
	m := NewMulti(shapeGraph())
	sum := Query{Aggregate: agg.Sum{}}
	topk := Query{Aggregate: mustAgg(t, "topk(10)"), Window: agg.NewTupleWindow(4)}
	a1 := attach(t, m, "sum", sum, Options{})
	assertMinedCloned(t, m, 1, 0, "first registration")
	a2 := attach(t, m, "topk", topk, Options{})
	assertMinedCloned(t, m, 1, 1, "same-shape registration")
	if a1.System() == a2.System() || a2.System().Stats().Algorithm != construct.AlgVNMN {
		t.Fatal("sum and topk must be two VNM_N systems")
	}
	if a2.System().Stats().Overlay.NegEdges == 0 {
		t.Fatal("fixture mines no negative edge: the comparison below would prove little")
	}
	donor, clone := a1.System().Engine().Topology(), a2.System().Engine().Topology()
	if &clone.In[0] != &donor.In[0] || &clone.Out[0] != &donor.Out[0] {
		t.Fatal("the clone's Topology copied the donor's edge arrays instead of sharing them")
	}
	if &clone.Dec[0] == &donor.Dec[0] {
		t.Fatal("the clone's Topology shares the donor's decisions")
	}
	assertFreshMine(t, m, a1, sum, Options{}, "donor")
	assertFreshMine(t, m, a2, topk, Options{}, "clone")

	attach(t, m, "max", Query{Aggregate: agg.Max{}}, Options{})
	assertMinedCloned(t, m, 2, 1, "other shape (VNM_D)")
	attach(t, m, "sum-iob", sum, Options{Algorithm: construct.AlgIOB})
	assertMinedCloned(t, m, 3, 1, "same aggregate, other algorithm")
	attach(t, m, "sum-it5", sum, Options{Construct: construct.Config{Iterations: 5}})
	assertMinedCloned(t, m, 4, 1, "same algorithm, other construct config")
	attach(t, m, "sum-pred", Query{Aggregate: agg.Sum{}, Predicate: graph.MinInDegree(3)}, Options{})
	assertMinedCloned(t, m, 5, 1, "a predicate has no shape")
	attach(t, m, "sum-2hop", Query{Aggregate: agg.Sum{}, Neighborhood: graph.KHopIn{K: 2}}, Options{})
	assertMinedCloned(t, m, 6, 1, "other neighbourhood")
}

// TestShapeCacheKeyedByStructuralVersion: one structural run that adds an
// edge and removes another leaves the edge count where it was. Both VNM_N
// systems must come out with the overlay of the NEW graph, at the price of
// one mine: the first to recompile finds its sibling stale, the second
// finds the first current.
func TestShapeCacheKeyedByStructuralVersion(t *testing.T) {
	m := NewMulti(shapeGraph())
	sum := Query{Aggregate: agg.Sum{}}
	topk := Query{Aggregate: mustAgg(t, "topk(10)"), Window: agg.NewTupleWindow(4)}
	a1 := attach(t, m, "sum", sum, Options{})
	a2 := attach(t, m, "topk", topk, Options{})
	assertMinedCloned(t, m, 1, 1, "set-up")

	g := m.Graph()
	var add, del graph.Event
	for u := graph.NodeID(0); add.Kind == 0 || del.Kind == 0; u++ {
		if out := g.Out(u); del.Kind == 0 && len(out) > 0 {
			del = graph.Event{Kind: graph.EdgeRemove, Node: u, Peer: out[0]}
		}
		if v := u + 100; add.Kind == 0 && !g.HasEdge(u, v) {
			add = graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: v}
		}
	}
	edges := g.NumEdges()
	if _, err := m.Apply([]graph.Event{add, del}, graph.NoAdvance); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != edges {
		t.Fatalf("fixture: edge count moved %d -> %d", edges, g.NumEdges())
	}
	assertMinedCloned(t, m, 2, 2, "one structural run over two same-shape systems")
	assertFreshMine(t, m, a1, sum, Options{}, "sum after the run")
	assertFreshMine(t, m, a2, topk, Options{}, "topk after the run")

	// A registration after the run clones the recompiled overlay, not a
	// leftover of the old graph.
	a3 := attach(t, m, "count", Query{Aggregate: agg.Count{}}, Options{})
	assertMinedCloned(t, m, 2, 3, "registration after the run")
	assertFreshMine(t, m, a3, Query{Aggregate: agg.Count{}}, Options{}, "count after the run")
}

// TestShapeCacheNeverClonesTouchedSibling: an overlay that was repaired in
// place (IOB) or extended by a merge-family member is no
// longer what construction produces, and a same-shape registration mines.
func TestShapeCacheNeverClonesTouchedSibling(t *testing.T) {
	sum := Query{Aggregate: agg.Sum{}}
	count := Query{Aggregate: agg.Count{}}

	t.Run("repaired", func(t *testing.T) {
		m := NewMulti(shapeGraph())
		// VNM_A output is what the IOB maintainer repairs here: IOB's own
		// construction iterates Go maps, so two mines of it differ and
		// there would be no fresh overlay to compare against.
		vnma := Options{Algorithm: construct.AlgVNMA}
		a1 := attach(t, m, "sum", sum, vnma)
		if !a1.System().Stats().Maintainable {
			t.Fatal("fixture: VNM_A overlay must be maintainable")
		}
		if _, err := m.Apply([]graph.Event{{Kind: graph.EdgeAdd, Node: 3, Peer: 250}}, graph.NoAdvance); err != nil {
			t.Fatal(err)
		}
		if a1.System().Stats().Recompiles != 0 {
			t.Fatal("fixture: the edge must have been repaired in place")
		}
		a2 := attach(t, m, "count", count, vnma)
		assertMinedCloned(t, m, 2, 0, "registration beside a repaired sibling")
		assertFreshMine(t, m, a2, count, vnma, "count")
	})

	t.Run("member-extended", func(t *testing.T) {
		m := NewMulti(shapeGraph())
		if _, err := m.AttachMerged("sum-1", "sum-family", sum, Options{}); err != nil {
			t.Fatal(err)
		}
		twoHop := Query{Aggregate: agg.Sum{}, Neighborhood: graph.KHopIn{K: 2}}
		if _, err := m.AttachMerged("sum-2", "sum-family", twoHop, Options{}); err != nil {
			t.Fatal(err)
		}
		if fams, _ := m.NumMergedFamilies(); fams != 1 {
			t.Fatal("fixture: the 2-hop query must have joined the sum family")
		}
		before := m.OverlaysMined()
		a3 := attach(t, m, "count", count, Options{})
		assertMinedCloned(t, m, before+1, 0, "registration beside a merged sibling")
		assertFreshMine(t, m, a3, count, Options{}, "count")
	})
}
