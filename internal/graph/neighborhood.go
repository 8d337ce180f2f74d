package graph

import "fmt"

// Neighborhood is the neighborhood selection function N() of the paper
// (§2.1): given the data graph and a node v, it returns the set of nodes
// whose content streams form the input list for v's ego-centric aggregate.
//
// Implementations must return each node at most once and must not include
// nodes that are not alive. The returned slice is owned by the caller.
type Neighborhood interface {
	// Select returns N(v) for the given graph.
	Select(g *Graph, v NodeID) []NodeID
	// Name returns a short human-readable description (e.g. "in-1hop").
	Name() string
}

// InNeighbors is the paper's running-example neighborhood
// N(x) = {y | y -> x}: the nodes with an edge into x.
type InNeighbors struct{}

// Select implements Neighborhood.
func (InNeighbors) Select(g *Graph, v NodeID) []NodeID {
	return append([]NodeID(nil), g.In(v)...)
}

// Name implements Neighborhood.
func (InNeighbors) Name() string { return "in-1hop" }

// OutNeighbors selects N(x) = {y | x -> y}, e.g. the accounts x follows.
type OutNeighbors struct{}

// Select implements Neighborhood.
func (OutNeighbors) Select(g *Graph, v NodeID) []NodeID {
	return append([]NodeID(nil), g.Out(v)...)
}

// Name implements Neighborhood.
func (OutNeighbors) Name() string { return "out-1hop" }

// KHopIn selects the set of nodes that can reach v in at most K hops
// (excluding v itself). K=1 is equivalent to InNeighbors; K=2 gives the
// 2-hop neighborhoods used in Figure 14(c) of the paper.
type KHopIn struct {
	K int
}

// Select implements Neighborhood via breadth-first search over in-edges.
func (k KHopIn) Select(g *Graph, v NodeID) []NodeID {
	if k.K <= 0 {
		return nil
	}
	seen := map[NodeID]bool{v: true}
	frontier := []NodeID{v}
	var result []NodeID
	for hop := 0; hop < k.K; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for _, w := range g.In(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					result = append(result, w)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return result
}

// Name implements Neighborhood.
func (k KHopIn) Name() string {
	switch k.K {
	case 1:
		return "in-1hop"
	case 2:
		return "in-2hop"
	default:
		return "in-khop"
	}
}

// Filtered wraps a Neighborhood and keeps only nodes accepted by Keep,
// implementing the paper's "filtering neighborhoods" (aggregating over
// subsets of neighborhoods, §1).
type Filtered struct {
	Base Neighborhood
	Keep func(g *Graph, center, candidate NodeID) bool
	Tag  string
}

// Select implements Neighborhood.
func (f Filtered) Select(g *Graph, v NodeID) []NodeID {
	base := f.Base.Select(g, v)
	out := base[:0]
	for _, u := range base {
		if f.Keep(g, v, u) {
			out = append(out, u)
		}
	}
	return out
}

// Name implements Neighborhood.
func (f Filtered) Name() string {
	if f.Tag != "" {
		return f.Tag
	}
	return "filtered(" + f.Base.Name() + ")"
}

// NeighborhoodKey canonicalizes a neighborhood's sharing identity: two
// neighborhoods with the same key select the same N(v) on every graph. K is
// always spelled out (Name() collapses every K>2 to "in-khop", which would
// wrongly share different depths); a Filtered neighborhood's identity is
// its tag plus its base's identity (the keep function is opaque), and
// untagged filters or custom implementations have none (ok=false: never
// share).
func NeighborhoodKey(nb Neighborhood) (string, bool) {
	switch n := nb.(type) {
	case InNeighbors:
		return "in-1hop", true
	case OutNeighbors:
		return "out-1hop", true
	case KHopIn:
		return fmt.Sprintf("in-%dhop", max(n.K, 0)), true // K <= 0 selects nothing
	case Filtered:
		if n.Tag == "" {
			return "", false
		}
		base, ok := NeighborhoodKey(n.Base)
		if !ok {
			return "", false
		}
		return "filtered:" + base + ":" + n.Tag, true
	default:
		return "", false
	}
}

// Predicate selects the subset of nodes for which the query must be
// evaluated (the pred component of ⟨F,w,N,pred⟩).
type Predicate func(g *Graph, v NodeID) bool

// AllNodes is the predicate that is true for every node (pred ≡ true).
func AllNodes(*Graph, NodeID) bool { return true }

// MinInDegree returns a predicate selecting nodes with in-degree >= d.
func MinInDegree(d int) Predicate {
	return func(g *Graph, v NodeID) bool { return g.InDegree(v) >= d }
}
