// Package graph implements the dynamic data graph G(V,E) underlying EAGr,
// together with the structure and content data streams defined in Section 2.1
// of the paper. Nodes are identified by dense int32 ids; adjacency is kept in
// compact slices to minimize GC pressure on large graphs.
package graph

import (
	"errors"
	"fmt"
)

// NodeID identifies a node in the data graph. IDs are dense and start at 0.
type NodeID = int32

// ErrNodeExists is returned when adding a node whose id is already present.
var ErrNodeExists = errors.New("graph: node already exists")

// ErrNodeNotFound is returned when referencing a node that is absent or deleted.
var ErrNodeNotFound = errors.New("graph: node not found")

// ErrEdgeExists is returned when adding an edge that is already present.
var ErrEdgeExists = errors.New("graph: edge already exists")

// ErrEdgeNotFound is returned when deleting an edge that is absent.
var ErrEdgeNotFound = errors.New("graph: edge not found")

// Graph is a directed, dynamic graph. Undirected (e.g., friendship) edges are
// represented as a pair of directed edges.
//
// Graph is not safe for concurrent mutation; the EAGr execution engine treats
// the structure as slowly changing (paper §2, "Scope of the Approach") and
// serializes structural updates. Concurrent readers are safe between
// mutations.
type Graph struct {
	out     [][]NodeID // out[v] = nodes w such that v -> w
	in      [][]NodeID // in[v]  = nodes u such that u -> v
	alive   []bool
	nEdges  int
	nAlive  int
	deleted []NodeID // free list of deleted ids available for reuse
	// version counts successful structural mutations (see Version).
	version uint64
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		out:   make([][]NodeID, 0, n),
		in:    make([][]NodeID, 0, n),
		alive: make([]bool, 0, n),
	}
}

// NewWithNodes returns a graph pre-populated with nodes 0..n-1 and no edges.
func NewWithNodes(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return g
}

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.nAlive }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// Version is the graph's structural version: it advances by exactly one on
// every successful AddNode, RemoveNode, AddEdge and RemoveEdge and on
// nothing else (a failed mutator and a content write leave it alone), so two
// equal readings bracket a span in which everything derived from the
// structure — a bipartite graph, a mined overlay — is still current. Counts
// cannot say that: an add and a remove leave NumEdges where it was.
func (g *Graph) Version() uint64 { return g.version }

// MaxID returns one past the largest node id ever allocated. Slices indexed
// by NodeID should be sized MaxID().
func (g *Graph) MaxID() int { return len(g.out) }

// Alive reports whether node v exists and has not been deleted.
func (g *Graph) Alive(v NodeID) bool {
	return v >= 0 && int(v) < len(g.alive) && g.alive[v]
}

// AddNode allocates a new node and returns its id. Deleted ids are reused.
func (g *Graph) AddNode() NodeID {
	g.version++
	if n := len(g.deleted); n > 0 {
		id := g.deleted[n-1]
		g.deleted = g.deleted[:n-1]
		g.alive[id] = true
		g.nAlive++
		return id
	}
	id := NodeID(len(g.out))
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.alive = append(g.alive, true)
	g.nAlive++
	return id
}

// RemoveNode deletes node v and all its incident edges.
func (g *Graph) RemoveNode(v NodeID) error {
	if !g.Alive(v) {
		return fmt.Errorf("remove node %d: %w", v, ErrNodeNotFound)
	}
	for _, w := range g.out[v] {
		g.in[w] = removeOne(g.in[w], v)
		g.nEdges--
	}
	for _, u := range g.in[v] {
		g.out[u] = removeOne(g.out[u], v)
		g.nEdges--
	}
	g.out[v] = nil
	g.in[v] = nil
	g.alive[v] = false
	g.nAlive--
	g.deleted = append(g.deleted, v)
	g.version++
	return nil
}

// AddEdge inserts the directed edge u -> v.
func (g *Graph) AddEdge(u, v NodeID) error {
	if !g.Alive(u) {
		return fmt.Errorf("add edge %d->%d: source: %w", u, v, ErrNodeNotFound)
	}
	if !g.Alive(v) {
		return fmt.Errorf("add edge %d->%d: target: %w", u, v, ErrNodeNotFound)
	}
	if containsID(g.out[u], v) {
		return fmt.Errorf("add edge %d->%d: %w", u, v, ErrEdgeExists)
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.nEdges++
	g.version++
	return nil
}

// RemoveEdge deletes the directed edge u -> v.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if !g.Alive(u) || !g.Alive(v) {
		return fmt.Errorf("remove edge %d->%d: %w", u, v, ErrNodeNotFound)
	}
	if !containsID(g.out[u], v) {
		return fmt.Errorf("remove edge %d->%d: %w", u, v, ErrEdgeNotFound)
	}
	g.out[u] = removeOne(g.out[u], v)
	g.in[v] = removeOne(g.in[v], u)
	g.nEdges--
	g.version++
	return nil
}

// HasEdge reports whether u -> v is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	return g.Alive(u) && g.Alive(v) && containsID(g.out[u], v)
}

// Out returns the out-neighbors of v. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Out(v NodeID) []NodeID {
	if !g.Alive(v) {
		return nil
	}
	return g.out[v]
}

// In returns the in-neighbors of v. The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) In(v NodeID) []NodeID {
	if !g.Alive(v) {
		return nil
	}
	return g.in[v]
}

// OutDegree returns len(Out(v)).
func (g *Graph) OutDegree(v NodeID) int { return len(g.Out(v)) }

// InDegree returns len(In(v)).
func (g *Graph) InDegree(v NodeID) int { return len(g.In(v)) }

// Nodes returns the ids of all live nodes in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, g.nAlive)
	for v := range g.alive {
		if g.alive[v] {
			ids = append(ids, NodeID(v))
		}
	}
	return ids
}

// ForEachNode calls fn for every live node in ascending id order.
func (g *Graph) ForEachNode(fn func(NodeID)) {
	for v := range g.alive {
		if g.alive[v] {
			fn(NodeID(v))
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		out:     make([][]NodeID, len(g.out)),
		in:      make([][]NodeID, len(g.in)),
		alive:   append([]bool(nil), g.alive...),
		nEdges:  g.nEdges,
		nAlive:  g.nAlive,
		deleted: append([]NodeID(nil), g.deleted...),
		version: g.version,
	}
	for v := range g.out {
		c.out[v] = append([]NodeID(nil), g.out[v]...)
		c.in[v] = append([]NodeID(nil), g.in[v]...)
	}
	return c
}

func containsID(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removeOne(s []NodeID, v NodeID) []NodeID {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
