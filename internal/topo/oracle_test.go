package topo

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// refTopo is the brute-force reference: a plain directed-edge multiset over
// alive nodes, with every aggregate recomputed from scratch on demand.
type refTopo struct {
	alive map[graph.NodeID]bool
	edges map[[2]graph.NodeID]bool // directed
}

func newRefTopo(n int) *refTopo {
	r := &refTopo{alive: map[graph.NodeID]bool{}, edges: map[[2]graph.NodeID]bool{}}
	for v := 0; v < n; v++ {
		r.alive[graph.NodeID(v)] = true
	}
	return r
}

func (r *refTopo) addEdge(u, w graph.NodeID) bool {
	k := [2]graph.NodeID{u, w}
	if !r.alive[u] || !r.alive[w] || r.edges[k] {
		return false
	}
	r.edges[k] = true
	return true
}

func (r *refTopo) removeEdge(u, w graph.NodeID) bool {
	k := [2]graph.NodeID{u, w}
	if !r.edges[k] {
		return false
	}
	delete(r.edges, k)
	return true
}

func (r *refTopo) removeNode(v graph.NodeID) bool {
	if !r.alive[v] {
		return false
	}
	delete(r.alive, v)
	for k := range r.edges {
		if k[0] == v || k[1] == v {
			delete(r.edges, k)
		}
	}
	return true
}

func (r *refTopo) neighbors(v graph.NodeID) map[graph.NodeID]bool {
	n := map[graph.NodeID]bool{}
	for k := range r.edges {
		if k[0] == v && k[1] != v {
			n[k[1]] = true
		}
		if k[1] == v && k[0] != v {
			n[k[0]] = true
		}
	}
	return n
}

func (r *refTopo) connected(a, b graph.NodeID) bool {
	return r.edges[[2]graph.NodeID{a, b}] || r.edges[[2]graph.NodeID{b, a}]
}

func (r *refTopo) triangles(v graph.NodeID) int64 {
	nb := make([]graph.NodeID, 0)
	for u := range r.neighbors(v) {
		nb = append(nb, u)
	}
	var t int64
	for i := 0; i < len(nb); i++ {
		for j := i + 1; j < len(nb); j++ {
			if r.connected(nb[i], nb[j]) {
				t++
			}
		}
	}
	return t
}

func (r *refTopo) density(v graph.NodeID) int64 {
	k := int64(len(r.neighbors(v)))
	if k < 2 {
		return 0
	}
	return r.triangles(v) * 2 * Scale / (k * (k - 1))
}

func (r *refTopo) wedges(v graph.NodeID) int64 {
	k := int64(len(r.neighbors(v)))
	return k * (k - 1) / 2
}

func (r *refTopo) egoBetweenness(v graph.NodeID) int64 {
	nv := r.neighbors(v)
	nb := make([]graph.NodeID, 0, len(nv))
	for u := range nv {
		nb = append(nb, u)
	}
	var sum int64
	for i := 0; i < len(nb); i++ {
		for j := i + 1; j < len(nb); j++ {
			a, b := nb[i], nb[j]
			if r.connected(a, b) {
				continue
			}
			c := int64(0)
			for x := range nv {
				if x != a && x != b && r.connected(a, x) && r.connected(b, x) {
					c++
				}
			}
			sum += Scale / (1 + c)
		}
	}
	return sum
}

// TestMirrorMatchesOracleUnderChurn drives random mixed edge/node churn
// through the incremental mirror and checks every aggregate against the
// brute-force reference after each burst, across 5 seeds.
func TestMirrorMatchesOracleUnderChurn(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.NewWithNodes(n)
		e := NewEngine(g)
		ref := newRefTopo(n)
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
					if !ref.addEdge(u, w) {
						t.Fatalf("seed %d step %d: graph accepted edge the oracle rejected", seed, step)
					}
					e.EdgeAdded(u, w, int64(step))
				}
			case op < 85: // edge remove
				u, w := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
				if g.RemoveEdge(u, w) == nil {
					if !ref.removeEdge(u, w) {
						t.Fatalf("seed %d step %d: graph removed edge the oracle lacked", seed, step)
					}
					e.EdgeRemoved(u, w, int64(step))
				}
			case op < 93: // node add
				v := g.AddNode()
				ref.alive[v] = true
				e.NodeAdded(v, int64(step))
				reAlive()
			default: // node remove
				v := alive[rng.Intn(len(alive))]
				if len(alive) > 4 && g.RemoveNode(v) == nil {
					if !ref.removeNode(v) {
						t.Fatalf("seed %d step %d: node %d dead in oracle", seed, step, v)
					}
					e.NodeRemoved(v, int64(step))
					reAlive()
				}
			}
			if step%25 == 0 || step == 399 {
				checkOracle(t, e, ref, seed, step)
			}
		}
	}
}

func checkOracle(t *testing.T, e *Engine, ref *refTopo, seed int64, step int) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := e.mirror
	for v := range ref.alive {
		if !m.Alive(v) {
			t.Fatalf("seed %d step %d: node %d alive in oracle, dead in mirror", seed, step, v)
		}
		if got, want := int64(m.Degree(v)), int64(len(ref.neighbors(v))); got != want {
			t.Fatalf("seed %d step %d: deg(%d) = %d, want %d", seed, step, v, got, want)
		}
		if got, want := m.Triangles(v), ref.triangles(v); got != want {
			t.Fatalf("seed %d step %d: tri(%d) = %d, want %d", seed, step, v, got, want)
		}
		if got, want := (Density{}).Value(m, v).Scalar, ref.density(v); got != want {
			t.Fatalf("seed %d step %d: density(%d) = %d, want %d", seed, step, v, got, want)
		}
		if got, want := (Wedges{}).Value(m, v).Scalar, ref.wedges(v); got != want {
			t.Fatalf("seed %d step %d: wedges(%d) = %d, want %d", seed, step, v, got, want)
		}
		if got, want := m.egoBetweenness(v), ref.egoBetweenness(v); got != want {
			t.Fatalf("seed %d step %d: EB(%d) = %d, want %d", seed, step, v, got, want)
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
