package topo

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/simtest"
)

// TestMirrorMatchesOracleUnderChurn drives random mixed edge/node churn
// through the incremental mirror and checks every aggregate against the
// simtest model's recompute after each burst, across 5 seeds.
func TestMirrorMatchesOracleUnderChurn(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.NewWithNodes(n)
		e := NewEngine(g)
		// Mirror the engine against a live graph so node-id reuse follows
		// the real allocator.
		alive := make([]graph.NodeID, 0, n)
		for v := 0; v < n; v++ {
			alive = append(alive, graph.NodeID(v))
		}
		reAlive := func() {
			alive = alive[:0]
			for v := 0; v < g.MaxID(); v++ {
				if g.Alive(graph.NodeID(v)) {
					alive = append(alive, graph.NodeID(v))
				}
			}
		}
		for step := 0; step < 400; step++ {
			op := rng.Intn(100)
			switch {
			case op < 55: // edge add
				u, w := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
				if g.AddEdge(u, w) == nil {
					e.EdgeAdded(u, w, int64(step))
				}
			case op < 85: // edge remove
				u, w := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
				if g.RemoveEdge(u, w) == nil {
					e.EdgeRemoved(u, w, int64(step))
				}
			case op < 93: // node add
				v := g.AddNode()
				e.NodeAdded(v, int64(step))
				reAlive()
			default: // node remove
				v := alive[rng.Intn(len(alive))]
				if len(alive) > 4 && g.RemoveNode(v) == nil {
					e.NodeRemoved(v, int64(step))
					reAlive()
				}
			}
			if step%25 == 0 || step == 399 {
				checkOracle(t, e, g, seed, step)
			}
		}
	}
}

func checkOracle(t *testing.T, e *Engine, g *graph.Graph, seed int64, step int) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	m, ref := e.mirror, simtest.NewModel(g)
	for _, v := range ref.Nodes() {
		if !m.Alive(v) {
			t.Fatalf("seed %d step %d: node %d alive in the graph, dead in the mirror", seed, step, v)
		}
		if got, want := m.Degree(v), len(ref.Undirected(v)); got != want {
			t.Fatalf("seed %d step %d: deg(%d) = %d, want %d", seed, step, v, got, want)
		}
		for name, got := range map[string]int64{
			"triangles":       m.Triangles(v),
			"density":         (Density{}).Value(m, v).Scalar,
			"wedges":          (Wedges{}).Value(m, v).Scalar,
			"ego-betweenness": m.egoBetweenness(v),
		} {
			if want := ref.Eval(simtest.Spec{Aggregate: name}, v).Scalar; got != want {
				t.Fatalf("seed %d step %d: %s(%d) = %d, want %d", seed, step, name, v, got, want)
			}
		}
	}
}

// TestBootstrapMatchesIncremental checks that a cold engine built over a
// churned graph lands on exactly the state the incremental path maintained —
// the invariant both durability recovery and the session's drop-and-rebuild
// of an idle engine rest on (topo state is a pure function of topology).
func TestBootstrapMatchesIncremental(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(99))
	g := graph.NewWithNodes(n)
	e := NewEngine(g)
	for step := 0; step < 500; step++ {
		u := graph.NodeID(rng.Intn(n))
		w := graph.NodeID(rng.Intn(n))
		if rng.Intn(3) > 0 {
			if g.AddEdge(u, w) == nil {
				e.EdgeAdded(u, w, int64(step))
			}
		} else if g.RemoveEdge(u, w) == nil {
			e.EdgeRemoved(u, w, int64(step))
		}
	}
	cold := NewEngine(g).mirror
	e.mu.RLock()
	defer e.mu.RUnlock()
	for v := graph.NodeID(0); int(v) < n; v++ {
		if cold.Degree(v) != e.mirror.Degree(v) {
			t.Fatalf("deg(%d): cold %d vs incremental %d", v, cold.Degree(v), e.mirror.Degree(v))
		}
		if cold.Triangles(v) != e.mirror.Triangles(v) {
			t.Fatalf("tri(%d): cold %d vs incremental %d", v, cold.Triangles(v), e.mirror.Triangles(v))
		}
		if cold.egoBetweenness(v) != e.mirror.egoBetweenness(v) {
			t.Fatalf("EB(%d): cold vs incremental mismatch", v)
		}
	}
}
