package topo

import (
	"repro/internal/graph"
)

// Mirror is the engine's undirected view of the graph: per-node maps from
// neighbor to directed-edge count, plus the triangle count of every ego,
// maintained exactly on every edge event. The main graph is directed and
// rejects duplicate directed edges, so between any ordered pair at most one
// edge exists and the per-pair count is 0, 1 (one direction), or 2 (both);
// an undirected edge exists iff the count is positive. Self-loops are
// ignored — they add nothing to an ego network.
//
// The Mirror is not internally synchronized: the Engine serializes writers
// (structural listener callbacks already run under the core mutation lock)
// and guards readers with its own RWMutex.
type Mirror struct {
	adj []map[graph.NodeID]uint8 // nil for never-seen/dead nodes
	tri []int64                  // triangles through each ego

	// Scratch reused across calls so steady-state churn allocates nothing:
	// common is C = N(x)∩N(y) of the pair being changed, gone NodeRemoved's
	// former neighbors.
	common, gone []graph.NodeID
}

// NewMirror returns an empty mirror sized for node IDs below cap.
func NewMirror(capacity int) *Mirror {
	return &Mirror{
		adj: make([]map[graph.NodeID]uint8, capacity),
		tri: make([]int64, capacity),
	}
}

func (m *Mirror) grow(v graph.NodeID) {
	if int(v) < len(m.adj) {
		return
	}
	n := int(v) + 1
	if c := 2 * len(m.adj); c > n {
		n = c
	}
	adj := make([]map[graph.NodeID]uint8, n)
	copy(adj, m.adj)
	m.adj = adj
	tri := make([]int64, n)
	copy(tri, m.tri)
	m.tri = tri
}

// Alive reports whether v is tracked (has been added and not removed).
func (m *Mirror) Alive(v graph.NodeID) bool {
	return int(v) < len(m.adj) && m.adj[v] != nil
}

// Degree is |N(v)|: the number of distinct undirected neighbors of v.
func (m *Mirror) Degree(v graph.NodeID) int {
	if int(v) >= len(m.adj) {
		return 0
	}
	return len(m.adj[v])
}

// Triangles is T(v): the number of neighbor pairs of v that are themselves
// connected, maintained incrementally.
func (m *Mirror) Triangles(v graph.NodeID) int64 {
	if int(v) >= len(m.tri) {
		return 0
	}
	return m.tri[v]
}

// Connected reports whether the undirected edge {u,w} exists.
func (m *Mirror) Connected(u, w graph.NodeID) bool {
	if int(u) >= len(m.adj) || m.adj[u] == nil {
		return false
	}
	return m.adj[u][w] > 0
}

// NodeAdded starts tracking v (idempotent: replayed adds keep state).
func (m *Mirror) NodeAdded(v graph.NodeID) {
	m.grow(v)
	if m.adj[v] == nil {
		m.adj[v] = make(map[graph.NodeID]uint8)
	}
}

// NodeRemoved drops v and all its incident undirected edges, one pair at a
// time through the same update an edge removal takes, so the triangle
// counts move exactly as removing each edge would. Returns v's former
// neighbors, the other egos whose ego network changed; the slice is scratch
// owned by the mirror, valid until the next mutating call.
func (m *Mirror) NodeRemoved(v graph.NodeID) []graph.NodeID {
	if int(v) >= len(m.adj) || m.adj[v] == nil {
		return nil
	}
	m.gone = m.gone[:0]
	for u := range m.adj[v] {
		m.gone = append(m.gone, u)
	}
	for _, u := range m.gone {
		delete(m.adj[v], u)
		delete(m.adj[u], v)
		m.pairChanged(v, u, -1)
	}
	m.adj[v] = nil
	return m.gone
}

// EdgeDelta applies the appearance (add=true) or disappearance of directed
// edge u→w to the undirected mirror. Most deltas don't change the
// undirected structure (second direction of an existing pair, removal of
// one of two directions): those return (nil, false). When the undirected
// edge {u,w} actually appears or disappears, pairChanged moves the
// triangle counts and the returned slice holds the common neighbors of u
// and w (the egos beyond u,w whose ego network changed), with changed=true.
// The slice is mirror-owned scratch, valid until the next mutating call.
func (m *Mirror) EdgeDelta(u, w graph.NodeID, add bool) (common []graph.NodeID, changed bool) {
	if u == w {
		return nil, false
	}
	m.grow(u)
	m.grow(w)
	if m.adj[u] == nil {
		m.adj[u] = make(map[graph.NodeID]uint8)
	}
	if m.adj[w] == nil {
		m.adj[w] = make(map[graph.NodeID]uint8)
	}
	n := m.adj[u][w]
	switch {
	case add && n == 0:
		common = m.pairChanged(u, w, +1)
		m.adj[u][w], m.adj[w][u] = 1, 1
		return common, true
	case !add && n == 1:
		// Delete the entries outright: Degree is len(map), so a dead pair
		// must not linger.
		delete(m.adj[u], w)
		delete(m.adj[w], u)
		return m.pairChanged(u, w, -1), true
	case add:
		n++ // second direction: the undirected edge is already present
	case n == 0:
		return nil, false // unknown edge (defensive; core pre-checks)
	default:
		n-- // one direction remains: the undirected edge survives
	}
	m.adj[u][w], m.adj[w][u] = n, n
	return nil, false
}

// pairChanged is the one update rule for an undirected pair {x,y} appearing
// (sign +1) or disappearing (sign −1). The caller calls it while the
// adjacency holds the graph WITHOUT the pair — before inserting it, after
// deleting it — so C = N(x)∩N(y) is the same on both sides and a removal
// subtracts exactly what the addition added. The pair closes one triangle
// through each ego of C, so T(x) and T(y) move by |C| and each T(v), v∈C,
// by 1. Returns C in mirror-owned scratch.
func (m *Mirror) pairChanged(x, y graph.NodeID, sign int64) []graph.NodeID {
	m.common = m.meet(m.common[:0], x, y)
	c := int64(len(m.common))
	m.tri[x] += sign * c
	m.tri[y] += sign * c
	for _, v := range m.common {
		m.tri[v] += sign
	}
	return m.common
}

// meet appends N(a)∩N(b) to dst, walking the smaller set.
func (m *Mirror) meet(dst []graph.NodeID, a, b graph.NodeID) []graph.NodeID {
	na, nb := m.adj[a], m.adj[b]
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	for z := range na {
		if nb[z] > 0 {
			dst = append(dst, z)
		}
	}
	return dst
}

// hits counts the members of set adjacent to b.
func (m *Mirror) hits(set []graph.NodeID, b graph.NodeID) int64 {
	nb := m.adj[b]
	var c int64
	for _, z := range set {
		if nb[z] > 0 {
			c++
		}
	}
	return c
}

// Bootstrap resets the mirror to exactly g's current topology: every alive
// node tracked, every directed edge folded in through EdgeDelta (so the
// counts come from the same pair rule churn uses).
// Used at query registration and durable recovery — topo state is a pure
// function of the recovered graph.
func (m *Mirror) Bootstrap(g *graph.Graph) {
	n := g.MaxID()
	m.adj = make([]map[graph.NodeID]uint8, n)
	m.tri = make([]int64, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		if g.Alive(v) {
			m.adj[v] = make(map[graph.NodeID]uint8)
		}
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if m.adj[v] == nil {
			continue
		}
		for _, w := range g.Out(v) {
			if m.adj[w] != nil {
				m.EdgeDelta(v, w, true)
			}
		}
	}
}

// egoBetweenness computes the Everett–Borgatti ego-betweenness of v over
// the mirror's current state: Σ over non-adjacent unordered neighbor pairs
// {a,b} of ⌊Scale/(1+c)⌋ where c = |N(a)∩N(b)∩N(v)| (v itself is the +1).
// Integer per-pair terms make the sum independent of map iteration order.
func (m *Mirror) egoBetweenness(v graph.NodeID) int64 {
	if int(v) >= len(m.adj) || m.adj[v] == nil {
		return 0
	}
	nv := m.adj[v]
	if len(nv) < 2 {
		return 0
	}
	// Materialize the neighbor list once; pairs iterate i<j over it. Readers
	// share the mirror under a read lock, so the scratch is local: on the
	// stack up to 64 neighbors, which keeps a typical read allocation-free.
	var nbuf, abuf [64]graph.NodeID
	nbrs := nbuf[:0]
	for u := range nv {
		nbrs = append(nbrs, u)
	}
	var sum int64
	av := abuf[:0]
	for i := 0; i < len(nbrs); i++ {
		a := nbrs[i]
		na := m.adj[a]
		av = m.meet(av[:0], a, v) // N(a)∩N(v): c of {a,b} is |av∩N(b)|
		for j := i + 1; j < len(nbrs); j++ {
			b := nbrs[j]
			if na[b] > 0 {
				continue // adjacent pair: geodesic skips v
			}
			sum += Scale / (1 + m.hits(av, b))
		}
	}
	return sum
}
