// Package bipartite builds the directed bipartite writer/reader graph AG
// (paper §3.1): for a data graph G and a query ⟨F,w,N,pred⟩, AG contains a
// writer node v_w for every node producing data, a reader node v_r for every
// node satisfying pred, and an edge v_w → u_r whenever v ∈ N(u). AG is the
// input to all overlay construction algorithms.
package bipartite

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Reader is one reader node of AG together with its input list N(v).
type Reader struct {
	Node   graph.NodeID   // the data-graph node this reader corresponds to
	Tag    int32          // the query it answers for (0 outside merged builds)
	Inputs []graph.NodeID // writers feeding this reader, sorted ascending
}

// AG is the bipartite writer/reader graph. Writers are identified by their
// data-graph node ids; WriterDegree counts each writer's out-degree in AG
// (its overall frequency of occurrence across reader input lists), the sort
// key of the FP-Tree algorithms. AllNodes lists every data-generating node
// — including those that currently feed no reader (like g_w in Figure 1(c))
// — so overlays can register a writer for each and absorb their writes.
type AG struct {
	Readers      []Reader
	WriterDegree map[graph.NodeID]int
	AllNodes     []graph.NodeID
	numEdges     int
	maxID        int
}

// Build constructs AG from the data graph, a neighborhood function and a
// predicate. Readers with empty input lists are kept (their aggregate is
// empty but they are still queryable); writers that feed no reader simply do
// not appear in any input list (like node g_w in Figure 1(c)).
func Build(g *graph.Graph, n graph.Neighborhood, pred graph.Predicate) *AG {
	return BuildUnion(g, []Member{{Neighborhood: n, Predicate: pred}})
}

// Member describes one query's reader population for a merged multi-query
// build: its neighborhood function, its predicate, and the query tag its
// readers carry.
type Member struct {
	Neighborhood graph.Neighborhood
	Predicate    graph.Predicate
	Tag          int32
}

// BuildUnion constructs the UNION bipartite graph of several queries over
// one data graph — the merged-overlay construction input (paper §3: sharing
// partial aggregates ACROSS queries). Every member contributes one reader
// per predicate-selected node, identified by (member tag, node), with that
// member's own neighborhood as its input list; writers' degrees accumulate
// across members, so FP-tree mining ranks writers by their union frequency
// and bicliques are shared wherever members' neighborhoods overlap.
// Construction algorithms need no merged-mode awareness: they pass each
// reader's tag through to the overlay.
func BuildUnion(g *graph.Graph, members []Member) *AG {
	ag := &AG{
		AllNodes:     make([]graph.NodeID, 0, g.NumNodes()),
		WriterDegree: make(map[graph.NodeID]int, g.NumNodes()), // writers are graph nodes
		maxID:        g.MaxID(),
	}
	g.ForEachNode(func(v graph.NodeID) {
		ag.AllNodes = append(ag.AllNodes, v)
	})
	for _, m := range members {
		nbr := m.Neighborhood
		if nbr == nil {
			nbr = graph.InNeighbors{}
		}
		pred := m.Predicate
		if pred == nil {
			pred = graph.AllNodes
		}
		g.ForEachNode(func(v graph.NodeID) {
			if !pred(g, v) {
				return
			}
			inputs := nbr.Select(g, v)
			slices.Sort(inputs)
			ag.Readers = append(ag.Readers, Reader{Node: v, Tag: m.Tag, Inputs: inputs})
			for _, w := range inputs {
				ag.WriterDegree[w]++
			}
			ag.numEdges += len(inputs)
		})
	}
	return ag
}

// FromInputLists builds an AG directly from explicit reader input lists,
// useful in tests and for replaying the paper's running example. The i-th
// map holds the readers of query tag i (one map for a single query). Input
// lists are copied and sorted.
func FromInputLists(views ...map[graph.NodeID][]graph.NodeID) *AG {
	ag := &AG{WriterDegree: make(map[graph.NodeID]int)}
	for tag, lists := range views {
		nodes := make([]graph.NodeID, 0, len(lists))
		for v := range lists {
			nodes = append(nodes, v)
		}
		slices.Sort(nodes)
		for _, v := range nodes {
			in := append([]graph.NodeID(nil), lists[v]...)
			slices.Sort(in)
			ag.Readers = append(ag.Readers, Reader{Node: v, Tag: int32(tag), Inputs: in})
			for _, w := range in {
				ag.WriterDegree[w]++
				ag.maxID = max(ag.maxID, int(w)+1)
			}
			ag.maxID = max(ag.maxID, int(v)+1)
			ag.numEdges += len(in)
		}
	}
	// All mentioned nodes (readers and writers) count as data-generating.
	seen := map[graph.NodeID]bool{}
	for _, r := range ag.Readers {
		if !seen[r.Node] {
			seen[r.Node] = true
			ag.AllNodes = append(ag.AllNodes, r.Node)
		}
		for _, w := range r.Inputs {
			if !seen[w] {
				seen[w] = true
				ag.AllNodes = append(ag.AllNodes, w)
			}
		}
	}
	slices.Sort(ag.AllNodes)
	return ag
}

// NumEdges returns |E'|, the denominator of the sharing index.
func (ag *AG) NumEdges() int { return ag.numEdges }

// NumReaders returns the number of reader nodes.
func (ag *AG) NumReaders() int { return len(ag.Readers) }

// NumWriters returns the number of distinct writers appearing in some input
// list.
func (ag *AG) NumWriters() int { return len(ag.WriterDegree) }

// MaxID returns one past the largest node id mentioned in AG; slices indexed
// by writer/reader node id should be sized MaxID().
func (ag *AG) MaxID() int { return ag.maxID }

// Writers returns the distinct writers sorted ascending.
func (ag *AG) Writers() []graph.NodeID {
	ws := make([]graph.NodeID, 0, len(ag.WriterDegree))
	for w := range ag.WriterDegree {
		ws = append(ws, w)
	}
	slices.Sort(ws)
	return ws
}

// Validate checks internal consistency (sorted, duplicate-free input lists
// and correct degree counts); it is used by tests.
func (ag *AG) Validate() error {
	deg := make(map[graph.NodeID]int)
	edges := 0
	for _, r := range ag.Readers {
		for i, w := range r.Inputs {
			if i > 0 && r.Inputs[i-1] >= w {
				return fmt.Errorf("reader %d: inputs not strictly sorted at %d", r.Node, i)
			}
			deg[w]++
			edges++
		}
	}
	if edges != ag.numEdges {
		return fmt.Errorf("edge count: have %d, recount %d", ag.numEdges, edges)
	}
	if len(deg) != len(ag.WriterDegree) {
		return fmt.Errorf("writer count: have %d, recount %d", len(ag.WriterDegree), len(deg))
	}
	for w, d := range deg {
		if ag.WriterDegree[w] != d {
			return fmt.Errorf("writer %d degree: have %d, recount %d", w, ag.WriterDegree[w], d)
		}
	}
	return nil
}
