package overlay

import (
	"fmt"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// ValidateAgainst checks the overlay's correctness against the bipartite
// graph it was compiled from (paper §2.2.1): every reader must aggregate
// exactly its input list N(v). For duplicate-sensitive aggregates
// (dupInsensitive=false) each input writer must contribute exactly once
// after accounting for negative edges; for duplicate-insensitive aggregates
// each input must contribute at least once and no non-input may contribute.
func (o *Overlay) ValidateAgainst(ag *bipartite.AG, dupInsensitive bool) error {
	if _, err := o.TopoOrder(); err != nil {
		return err
	}
	memo := make(map[NodeRef]map[graph.NodeID]int)
	for _, r := range ag.Readers {
		ref := o.Reader(r.Tag, r.Node)
		if ref == NoNode {
			return fmt.Errorf("overlay: reader %d missing", r.Node)
		}
		got := o.inputSet(ref, memo)
		want := make(map[graph.NodeID]bool, len(r.Inputs))
		for _, w := range r.Inputs {
			want[w] = true
		}
		for w, c := range got {
			if !want[w] {
				return fmt.Errorf("overlay: reader %d aggregates %d (multiplicity %d) not in N(%d)",
					r.Node, w, c, r.Node)
			}
			if c < 1 {
				return fmt.Errorf("overlay: reader %d has net multiplicity %d for input %d",
					r.Node, c, w)
			}
			if !dupInsensitive && c != 1 {
				return fmt.Errorf("overlay: duplicate-sensitive reader %d gets input %d %d times",
					r.Node, w, c)
			}
		}
		for w := range want {
			if got[w] < 1 {
				return fmt.Errorf("overlay: reader %d missing input %d", r.Node, w)
			}
		}
	}
	return o.checkStructure()
}

// checkStructure verifies half-edge symmetry, edge counts, and node-kind
// constraints (writers have no inputs, readers no outputs).
func (o *Overlay) checkStructure() error {
	count := 0
	for i := range o.nodes {
		n := &o.nodes[i]
		if n.dead {
			if len(n.In) != 0 || len(n.Out) != 0 {
				return fmt.Errorf("overlay: dead node %d has edges", i)
			}
			continue
		}
		if n.Kind == WriterNode && len(n.In) != 0 {
			return fmt.Errorf("overlay: writer %d has inputs", i)
		}
		if n.Kind == ReaderNode && len(n.Out) != 0 {
			return fmt.Errorf("overlay: reader %d has outputs", i)
		}
		for _, e := range n.In {
			if !o.Alive(e.Peer) {
				return fmt.Errorf("overlay: node %d has in-edge from dead node %d", i, e.Peer)
			}
			if sign, ok := edgeSign(o.nodes[e.Peer].Out, NodeRef(i)); !ok || sign != e.Negative {
				return fmt.Errorf("overlay: asymmetric edge %d->%d", e.Peer, i)
			}
		}
		count += len(n.In)
	}
	if count != o.numEdges {
		return fmt.Errorf("overlay: edge count %d, recount %d", o.numEdges, count)
	}
	return nil
}

// CheckDecisions verifies the dataflow-decision consistency constraint
// (paper §2.2.1): all inputs of a push node are push (equivalently, all
// nodes downstream of a pull node are pull), and writers are push.
func (o *Overlay) CheckDecisions() error {
	for i := range o.nodes {
		n := &o.nodes[i]
		if n.dead {
			continue
		}
		if n.Kind == WriterNode && n.Dec != Push {
			return fmt.Errorf("overlay: writer %d not push", i)
		}
		if n.Dec == Push {
			for _, e := range n.In {
				if o.nodes[e.Peer].Dec != Push {
					return fmt.Errorf("overlay: push node %d has pull input %d", i, e.Peer)
				}
			}
		}
	}
	return nil
}

// DebugString renders a small overlay for test failure messages.
func (o *Overlay) DebugString() string {
	var buf []byte
	o.ForEachNode(func(ref NodeRef, n *Node) {
		buf = append(buf, fmt.Sprintf("%d %s(gid=%d", ref, n.Kind, n.GID)...)
		if n.Tag != 0 {
			buf = append(buf, fmt.Sprintf(" tag=%d", n.Tag)...)
		}
		buf = append(buf, fmt.Sprintf(") %s in=[", n.Dec)...)
		ins := append([]HalfEdge(nil), n.In...)
		sort.Slice(ins, func(a, b int) bool { return ins[a].Peer < ins[b].Peer })
		for j, e := range ins {
			if j > 0 {
				buf = append(buf, ' ')
			}
			if e.Negative {
				buf = append(buf, '-')
			}
			buf = append(buf, fmt.Sprint(e.Peer)...)
		}
		buf = append(buf, "]\n"...)
	})
	return string(buf)
}
