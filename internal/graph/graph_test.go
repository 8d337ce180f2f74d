package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		if id := g.AddNode(); id != NodeID(i) {
			t.Fatalf("AddNode #%d = %d, want %d", i, id, i)
		}
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.MaxID() != 4 {
		t.Fatalf("MaxID = %d, want 4", g.MaxID())
	}
}

func TestAddEdgeAndDegrees(t *testing.T) {
	g := NewWithNodes(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if d := g.OutDegree(0); d != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", d)
	}
	if d := g.InDegree(2); d != 2 {
		t.Fatalf("InDegree(2) = %d, want 2", d)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge direction wrong")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewWithNodes(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("duplicate edge: err = %v, want ErrEdgeExists", err)
	}
	if err := g.AddEdge(0, 9); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("missing target: err = %v, want ErrNodeNotFound", err)
	}
	if err := g.AddEdge(9, 0); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("missing source: err = %v, want ErrNodeNotFound", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewWithNodes(2)
	if err := g.RemoveEdge(0, 1); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("remove missing edge: err = %v, want ErrEdgeNotFound", err)
	}
	mustAdd(t, g, 0, 1)
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
	if g.InDegree(1) != 0 || g.OutDegree(0) != 0 {
		t.Fatal("degrees not updated after removal")
	}
}

func TestRemoveNodeCleansIncidentEdges(t *testing.T) {
	g := NewWithNodes(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 1)
	mustAdd(t, g, 3, 1)
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after removing hub, want 0", g.NumEdges())
	}
	if g.Alive(1) {
		t.Fatal("node 1 still alive")
	}
	for _, v := range []NodeID{0, 2, 3} {
		if g.OutDegree(v) != 0 || g.InDegree(v) != 0 {
			t.Fatalf("node %d has dangling adjacency", v)
		}
	}
	if err := g.RemoveNode(1); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("double remove: err = %v, want ErrNodeNotFound", err)
	}
}

func TestNodeIDReuse(t *testing.T) {
	g := NewWithNodes(3)
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	id := g.AddNode()
	if id != 1 {
		t.Fatalf("reused id = %d, want 1", id)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewWithNodes(3)
	mustAdd(t, g, 0, 1)
	c := g.Clone()
	mustAdd(t, c, 1, 2)
	if g.NumEdges() != 1 {
		t.Fatalf("mutating clone changed original: edges = %d", g.NumEdges())
	}
	if c.NumEdges() != 2 {
		t.Fatalf("clone edges = %d, want 2", c.NumEdges())
	}
}

func TestNodesAndForEach(t *testing.T) {
	g := NewWithNodes(5)
	if err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 3, 4}
	got := g.Nodes()
	if len(got) != len(want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
	var visited []NodeID
	g.ForEachNode(func(v NodeID) { visited = append(visited, v) })
	if len(visited) != 4 {
		t.Fatalf("ForEachNode visited %v", visited)
	}
}

func TestInNeighborsMatchesPaperExample(t *testing.T) {
	// Figure 1(a): N(x) = {y | y -> x}. Build the example graph with
	// nodes a..g = 0..6 and check N(a) = {c,d,e,f}.
	g, ids := paperExampleGraph()
	n := InNeighbors{}.Select(g, ids["a"])
	got := map[NodeID]bool{}
	for _, v := range n {
		got[v] = true
	}
	for _, name := range []string{"c", "d", "e", "f"} {
		if !got[ids[name]] {
			t.Fatalf("N(a) missing %s; got %v", name, n)
		}
	}
	if len(n) != 4 {
		t.Fatalf("len(N(a)) = %d, want 4", len(n))
	}
}

func TestKHopIn(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3. KHopIn{2} on node 3 = {2, 1}.
	g := NewWithNodes(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 3)
	got := KHopIn{K: 2}.Select(g, 3)
	if len(got) != 2 {
		t.Fatalf("2-hop in of 3 = %v, want {2,1}", got)
	}
	set := map[NodeID]bool{got[0]: true, got[1]: true}
	if !set[2] || !set[1] {
		t.Fatalf("2-hop in of 3 = %v, want {2,1}", got)
	}
	// K=1 equals InNeighbors.
	oneHop := KHopIn{K: 1}.Select(g, 3)
	if len(oneHop) != 1 || oneHop[0] != 2 {
		t.Fatalf("1-hop = %v, want [2]", oneHop)
	}
	// K=0 is empty.
	if got := (KHopIn{K: 0}).Select(g, 3); len(got) != 0 {
		t.Fatalf("0-hop = %v, want empty", got)
	}
}

func TestKHopInExcludesCenterOnCycle(t *testing.T) {
	// 0 <-> 1; 2-hop of 0 must not contain 0 itself.
	g := NewWithNodes(2)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 0)
	got := KHopIn{K: 2}.Select(g, 0)
	for _, v := range got {
		if v == 0 {
			t.Fatalf("2-hop of 0 contains the center: %v", got)
		}
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("2-hop of 0 = %v, want [1]", got)
	}
}

func TestFilteredNeighborhood(t *testing.T) {
	g := NewWithNodes(4)
	mustAdd(t, g, 1, 0)
	mustAdd(t, g, 2, 0)
	mustAdd(t, g, 3, 0)
	f := Filtered{
		Base: InNeighbors{},
		Keep: func(_ *Graph, _, cand NodeID) bool { return cand%2 == 1 },
		Tag:  "odd-in",
	}
	got := f.Select(g, 0)
	if len(got) != 2 {
		t.Fatalf("filtered = %v, want odd ids {1,3}", got)
	}
	if f.Name() != "odd-in" {
		t.Fatalf("Name = %q", f.Name())
	}
}

func TestPredicates(t *testing.T) {
	g := NewWithNodes(3)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 1, 2)
	if !AllNodes(g, 0) {
		t.Fatal("AllNodes false")
	}
	p := MinInDegree(2)
	if !p(g, 2) || p(g, 0) {
		t.Fatal("MinInDegree predicate wrong")
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		ContentWrite: "write",
		EdgeAdd:      "edge-add",
		EdgeRemove:   "edge-remove",
		NodeAdd:      "node-add",
		NodeRemove:   "node-remove",
		Read:         "read",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

// Property: after any sequence of random adds/removes, the in/out adjacency
// views are mutually consistent and edge counts match.
func TestRandomMutationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewWithNodes(30)
	type edge struct{ u, v NodeID }
	present := map[edge]bool{}
	for step := 0; step < 5000; step++ {
		u := NodeID(rng.Intn(30))
		v := NodeID(rng.Intn(30))
		if u == v {
			continue
		}
		e := edge{u, v}
		if present[e] {
			if err := g.RemoveEdge(u, v); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			delete(present, e)
		} else {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			present[e] = true
		}
	}
	if g.NumEdges() != len(present) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(present))
	}
	checkConsistency(t, g)
}

// checkConsistency verifies that u∈in[v] iff v∈out[u] and that counts match.
func checkConsistency(t *testing.T, g *Graph) {
	t.Helper()
	total := 0
	for _, u := range g.Nodes() {
		for _, v := range g.Out(u) {
			total++
			if !containsID(g.In(v), u) {
				t.Fatalf("edge %d->%d in out-list but not in-list", u, v)
			}
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("edge count mismatch: counted %d, NumEdges %d", total, g.NumEdges())
	}
	back := 0
	for _, v := range g.Nodes() {
		back += len(g.In(v))
	}
	if back != total {
		t.Fatalf("in-list total %d != out-list total %d", back, total)
	}
}

// Property (testing/quick): adding then removing an edge restores HasEdge to
// false and leaves degree sums balanced.
func TestQuickAddRemoveEdge(t *testing.T) {
	f := func(rawU, rawV uint8) bool {
		u, v := NodeID(rawU%20), NodeID(rawV%20)
		if u == v {
			return true
		}
		g := NewWithNodes(20)
		if err := g.AddEdge(u, v); err != nil {
			return false
		}
		if !g.HasEdge(u, v) {
			return false
		}
		if err := g.RemoveEdge(u, v); err != nil {
			return false
		}
		return !g.HasEdge(u, v) && g.NumEdges() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// paperExampleGraph builds the Figure 1(a) data graph. Edge direction y->x
// means "y is an input of x" under N(x) = {y | y -> x}. From Figure 1(b):
//
//	N(a)={c,d,e,f} N(b)={d,e,f} N(c)={a,b,c',d,e,f}... — the figure's exact
//
// lists are: a:{c,d,e,f}, b:{d,e,f}, c:{a,b,d,e,f}, d:{a,b,c,e,f},
// e:{a,b,c,d}, f:{a,b,c,d,e}, g:{a,b,c,d,e,f}.
func paperExampleGraph() (*Graph, map[string]NodeID) {
	g := NewWithNodes(7)
	ids := map[string]NodeID{"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5, "g": 6}
	inputs := map[string][]string{
		"a": {"c", "d", "e", "f"},
		"b": {"d", "e", "f"},
		"c": {"a", "b", "d", "e", "f"},
		"d": {"a", "b", "c", "e", "f"},
		"e": {"a", "b", "c", "d"},
		"f": {"a", "b", "c", "d", "e"},
		"g": {"a", "b", "c", "d", "e", "f"},
	}
	for reader, ws := range inputs {
		for _, w := range ws {
			// Writer -> reader edge; ignore duplicates from symmetry.
			_ = g.AddEdge(ids[w], ids[reader])
		}
	}
	return g, ids
}

func mustAdd(t *testing.T, g *Graph, u, v NodeID) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

// TestVersionCountsSuccessfulStructuralMutations: +1 per successful
// AddNode/RemoveNode/AddEdge/RemoveEdge, nothing for a failed one — the
// contract a cache of anything derived from the structure invalidates on.
func TestVersionCountsSuccessfulStructuralMutations(t *testing.T) {
	g := New(4)
	want := uint64(0)
	step := func(what string, succeeded bool) {
		t.Helper()
		if succeeded {
			want++
		}
		if g.Version() != want {
			t.Fatalf("after %s: version %d, want %d", what, g.Version(), want)
		}
	}
	step("New", false)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	want += 3
	step("three AddNode", false)
	step("AddEdge", g.AddEdge(a, b) == nil)
	step("duplicate AddEdge", g.AddEdge(a, b) == nil)
	step("AddEdge to a missing node", g.AddEdge(a, 99) == nil)
	step("RemoveEdge of a missing edge", g.RemoveEdge(b, a) == nil)
	step("RemoveEdge", g.RemoveEdge(a, b) == nil)
	// An add and a remove leave the edge count where it was, not the version.
	step("AddEdge", g.AddEdge(b, c) == nil)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	step("RemoveNode", g.RemoveNode(c) == nil) // its incident edge goes with it: still one mutation
	step("RemoveNode of a dead node", g.RemoveNode(c) == nil)
	step("RemoveEdge on a dead node", g.RemoveEdge(b, c) == nil)
	step("AddNode reusing an id", g.AddNode() == c)
	// Both directions of a pair are two edges, two mutations.
	step("AddEdge", g.AddEdge(a, b) == nil)
	step("AddEdge reversed", g.AddEdge(b, a) == nil)
	if cl := g.Clone(); cl.Version() != g.Version() {
		t.Fatalf("clone version %d, want %d", cl.Version(), g.Version())
	}
	// Reads do not move it.
	_, _, _ = g.In(a), g.Nodes(), g.HasEdge(a, b)
	step("reads", false)
}
