// Package maxflow implements the Ford–Fulkerson method with breadth-first
// augmenting paths (Edmonds–Karp) and s-t min-cut extraction, the solver
// behind EAGr's optimal dataflow decisions (paper §4.4).
package maxflow

// Inf is the capacity used for uncuttable edges (the original overlay edges
// in the DMP reduction).
const Inf int64 = 1 << 60

type edge struct {
	to   int32
	cap  int64 // residual capacity
	next int32 // next edge index in the source's adjacency list, -1 ends
}

// Graph is a flow network over nodes 0..n-1 using a forward-star adjacency
// representation; reverse edges are created implicitly with capacity 0.
type Graph struct {
	head  []int32
	edges []edge
}

// New returns an empty flow network with n nodes.
func New(n int) *Graph {
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &Graph{head: head}
}

// AddEdge inserts a directed edge u → v with the given capacity.
func (g *Graph) AddEdge(u, v int, capacity int64) {
	g.edges = append(g.edges, edge{to: int32(v), cap: capacity, next: g.head[u]})
	g.head[u] = int32(len(g.edges) - 1)
	g.edges = append(g.edges, edge{to: int32(u), cap: 0, next: g.head[v]})
	g.head[v] = int32(len(g.edges) - 1)
}

// MaxFlow computes the maximum s-t flow, mutating residual capacities.
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	parentEdge := make([]int32, len(g.head))
	queue := make([]int32, 0, len(g.head))
	for {
		for i := range parentEdge {
			parentEdge[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, int32(s))
		parentEdge[s] = -2
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for ei := g.head[u]; ei >= 0; ei = g.edges[ei].next {
				e := &g.edges[ei]
				if e.cap <= 0 || parentEdge[e.to] != -1 {
					continue
				}
				parentEdge[e.to] = ei
				if int(e.to) == t {
					found = true
					break bfs
				}
				queue = append(queue, e.to)
			}
		}
		if !found {
			return total
		}
		// Find bottleneck along the path.
		bottleneck := Inf
		for v := int32(t); v != int32(s); {
			ei := parentEdge[v]
			if g.edges[ei].cap < bottleneck {
				bottleneck = g.edges[ei].cap
			}
			v = g.edges[ei^1].to
		}
		// Apply.
		for v := int32(t); v != int32(s); {
			ei := parentEdge[v]
			g.edges[ei].cap -= bottleneck
			g.edges[ei^1].cap += bottleneck
			v = g.edges[ei^1].to
		}
		total += bottleneck
	}
}

// ResidualReachable returns, after MaxFlow, the set of nodes reachable from
// s in the residual graph. These nodes form the source side of a minimum
// s-t cut.
func (g *Graph) ResidualReachable(s int) []bool {
	seen := make([]bool, len(g.head))
	seen[s] = true
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for ei := g.head[u]; ei >= 0; ei = g.edges[ei].next {
			e := &g.edges[ei]
			if e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return seen
}
