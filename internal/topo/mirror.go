package topo

import (
	"repro/internal/graph"
)

// Mirror is the engine's undirected view of the graph: per-node maps from
// neighbor to directed-edge count, plus the incrementally-maintained
// triangle count per ego. The main graph is directed and rejects duplicate
// directed edges, so between any ordered pair at most one edge exists and
// the per-pair count is 0, 1 (one direction), or 2 (both); an undirected
// edge exists iff the count is positive. Self-loops are ignored — they add
// nothing to an ego network.
//
// The Mirror is not internally synchronized: the Engine serializes writers
// (structural listener callbacks already run under the core mutation lock)
// and guards readers with its own RWMutex.
type Mirror struct {
	adj []map[graph.NodeID]uint8 // nil for never-seen/dead nodes
	tri []int64                  // triangles through each ego

	// common is scratch for the neighbors-of-both walk on edge deltas,
	// reused across calls so steady-state churn allocates nothing.
	common []graph.NodeID
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

// NodeRemoved drops v and all its incident undirected edges, adjusting
// triangle counts exactly as removing each edge one by one would. Returns
// the set of other egos whose triangle count or degree changed (v's former
// neighbors plus triangle third parties); the slice is scratch owned by the
// mirror, valid until the next mutating call.
func (m *Mirror) NodeRemoved(v graph.NodeID) []graph.NodeID {
	if int(v) >= len(m.adj) || m.adj[v] == nil {
		return nil
	}
	m.common = m.common[:0]
	affected := m.common
	for u := range m.adj[v] {
		// Each triangle v-u-x (x also a neighbor of v, u~x) dies with v.
		// Decrement T[u] by |N(u)∩N(v)\{v}|: the loop visits the triangle
		// from x's side too, so each corner loses exactly one per
		// triangle. (N(v) is not mutated during the loop — only v's entry
		// in each N(u) is deleted, and x==v is excluded below — so later
		// iterations still see the full common sets.)
		c := int64(0)
		nu, nv := m.adj[u], m.adj[v]
		if len(nu) < len(nv) {
			for x := range nu {
				if x != v && nv[x] > 0 {
					c++
				}
			}
		} else {
			for x := range nv {
				if x != u && nu[x] > 0 {
					c++
				}
			}
		}
		m.tri[u] -= c
		delete(m.adj[u], v)
		affected = append(affected, u)
	}
	m.tri[v] = 0
	m.adj[v] = nil
	m.common = affected[:0]
	return affected
}

// EdgeDelta applies the appearance (add=true) or disappearance of directed
// edge u→w to the undirected mirror. Most deltas don't change the
// undirected structure (second direction of an existing pair, removal of
// one of two directions): those return (nil, false). When the undirected
// edge {u,w} actually appears or disappears, triangle counts update — for
// every common neighbor x of u and w, the triangle u-w-x appears/vanishes,
// so T[u] and T[w] move by |common| and each T[x] by 1 — and the returned
// slice holds the common neighbors (the egos beyond u,w whose values
// changed), with changed=true. The slice is mirror-owned scratch, valid
// until the next mutating call.
//
// For removal the common-neighbor set is computed BEFORE deleting the pair
// entry, so the counts removed are exactly the counts that were added.
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
	if add {
		m.adj[u][w]++
		m.adj[w][u]++
		if m.adj[u][w] != 1 {
			return nil, false // second direction: undirected edge already present
		}
	} else {
		if m.adj[u][w] == 0 {
			return nil, false // unknown edge (defensive; core pre-checks)
		}
		m.adj[u][w]--
		m.adj[w][u]--
		if m.adj[u][w] != 0 {
			return nil, false // one direction remains: undirected edge survives
		}
		// Drop the zero-count entries: Degree is len(map), so a dead pair
		// must not linger.
		delete(m.adj[u], w)
		delete(m.adj[w], u)
	}
	// The undirected edge {u,w} just appeared or disappeared. Common
	// neighbors are computed over the post-update adjacency minus the pair
	// itself, which for both add and remove equals N(u)∩N(w)\{u,w} of the
	// state WITHOUT the {u,w} edge — exactly the triangles affected.
	m.common = m.common[:0]
	nu, nw := m.adj[u], m.adj[w]
	if len(nu) > len(nw) {
		nu, nw = nw, nu
	}
	for x := range nu {
		if x != u && x != w && nw[x] > 0 {
			m.common = append(m.common, x)
		}
	}
	d := int64(1)
	if !add {
		d = -1
	}
	c := int64(len(m.common))
	m.tri[u] += d * c
	m.tri[w] += d * c
	for _, x := range m.common {
		m.tri[x] += d
	}
	return m.common, true
}

// Bootstrap resets the mirror to exactly g's current topology: every alive
// node tracked, every directed edge folded into undirected pair counts,
// triangle counts recomputed. Used at query registration and durable
// recovery — topo state is a pure function of the recovered graph.
func (m *Mirror) Bootstrap(g *graph.Graph) {
	n := g.MaxID()
	m.adj = make([]map[graph.NodeID]uint8, n)
	m.tri = make([]int64, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		if !g.Alive(v) {
			continue
		}
		m.adj[v] = make(map[graph.NodeID]uint8)
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if m.adj[v] == nil {
			continue
		}
		for _, w := range g.Out(v) {
			if w == v || m.adj[w] == nil {
				continue
			}
			m.adj[v][w]++
			m.adj[w][v]++
		}
	}
	// Count triangles per ego: T(v) = ½·Σ_{u∈N(v)} |N(v)∩N(u)\{v,u}| —
	// each triangle v-u-x contributes to the sum from both u's and x's
	// side, hence the halving.
	for v := range m.adj {
		if m.adj[v] == nil {
			continue
		}
		var t int64
		nv := m.adj[graph.NodeID(v)]
		for u := range nv {
			nu := m.adj[u]
			small, big := nv, nu
			if len(big) < len(small) {
				small, big = big, small
			}
			for x := range small {
				if x != graph.NodeID(v) && x != u && big[x] > 0 && nv[x] > 0 && nu[x] > 0 {
					t++
				}
			}
		}
		m.tri[v] = t / 2
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
	// Materialize the neighbor list once; pairs iterate i<j over it.
	nbrs := make([]graph.NodeID, 0, len(nv))
	for u := range nv {
		nbrs = append(nbrs, u)
	}
	var sum int64
	for i := 0; i < len(nbrs); i++ {
		a := nbrs[i]
		na := m.adj[a]
		for j := i + 1; j < len(nbrs); j++ {
			b := nbrs[j]
			if na[b] > 0 {
				continue // adjacent pair: geodesic skips v
			}
			c := int64(0)
			nb := m.adj[b]
			small, big := na, nb
			if len(big) < len(small) {
				small, big = big, small
			}
			for x := range small {
				if x != v && big[x] > 0 && nv[x] > 0 {
					c++
				}
			}
			sum += Scale / (1 + c)
		}
	}
	return sum
}
