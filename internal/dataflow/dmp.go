package dataflow

import (
	"fmt"
	"math"

	"repro/internal/maxflow"
	"repro/internal/overlay"
)

// weightScale converts float node weights to the fixed-point int64
// capacities used by the max-flow solver.
const weightScale = 1 << 16

// PruneStats reports the effectiveness of the P1/P2 pruning pass (§4.5) —
// the quantities plotted in Figure 12.
type PruneStats struct {
	// NodesBefore counts the live overlay nodes entering the decision
	// procedure; GraphNodesBefore of them are writers/readers and
	// VirtualNodesBefore are partial aggregators.
	NodesBefore        int
	GraphNodesBefore   int
	VirtualNodesBefore int
	// NodesAfter (and its split) count the nodes surviving pruning, i.e.
	// the input to the max-flow computation.
	NodesAfter        int
	GraphNodesAfter   int
	VirtualNodesAfter int
	// Components is the number of connected components among survivors;
	// max-flow runs on each independently.
	Components int
	// LargestComponent is the size of the biggest component.
	LargestComponent int
}

// Decide makes optimal push/pull decisions for every overlay node (§4.4):
// node weights w(v) = PULL(v) − PUSH(v) are computed from the propagated
// frequencies, the P1/P2 pruning rules run to fixpoint, and each remaining
// connected component is solved exactly with an s-t min-cut. The overlay's
// Dec fields are set in place.
func Decide(ov *overlay.Overlay, f *Freqs, m CostModel) (PruneStats, error) {
	var st PruneStats

	weight := make([]float64, ov.Len())
	alive := make([]bool, ov.Len())
	indeg := make([]int, ov.Len())
	outdeg := make([]int, ov.Len())
	refs := make([]overlay.NodeRef, 0, ov.NumNodes())
	ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		weight[ref] = f.Weight(ref, m)
		// Writers are always annotated push (§2.2.1): clamping their
		// weight to zero guarantees rule P1 prunes every writer into X
		// before the min-cut runs, without constraining anyone else.
		if n.Kind == overlay.WriterNode && weight[ref] < 0 {
			weight[ref] = 0
		}
		alive[ref] = true
		indeg[ref] = len(n.In)
		outdeg[ref] = len(n.Out)
		refs = append(refs, ref)
		st.NodesBefore++
		if n.Kind == overlay.PartialNode {
			st.VirtualNodesBefore++
		} else {
			st.GraphNodesBefore++
		}
	})

	// P1/P2 pruning to fixpoint: P1 removes positive-weight nodes with no
	// remaining inputs (assign push); P2 removes negative-weight nodes
	// with no remaining outputs (assign pull). Zero-weight nodes are
	// indifferent; treat them as prunable on either side.
	// Each node enters once up front and once more per edge it is an end
	// of, so the queue never outgrows this.
	queue := append(make([]overlay.NodeRef, 0, len(refs)+2*ov.NumEdges()), refs...)
	for len(queue) > 0 {
		ref := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[ref] {
			continue
		}
		var dec overlay.Decision
		switch {
		case weight[ref] >= 0 && indeg[ref] == 0:
			dec = overlay.Push
		case weight[ref] <= 0 && outdeg[ref] == 0:
			dec = overlay.Pull
		default:
			continue
		}
		ov.Node(ref).Dec = dec
		alive[ref] = false
		for _, e := range ov.Node(ref).Out {
			if alive[e.Peer] {
				indeg[e.Peer]--
				queue = append(queue, e.Peer)
			}
		}
		for _, e := range ov.Node(ref).In {
			if alive[e.Peer] {
				outdeg[e.Peer]--
				queue = append(queue, e.Peer)
			}
		}
	}

	// Gather survivors and their connected components (undirected).
	// comp[ref] is the component of a gathered survivor, -1 before.
	comp := make([]int32, ov.Len())
	for i := range comp {
		comp[i] = -1
	}
	var compMembers [][]overlay.NodeRef
	for _, ref := range refs {
		if !alive[ref] {
			continue
		}
		st.NodesAfter++
		if ov.Node(ref).Kind == overlay.PartialNode {
			st.VirtualNodesAfter++
		} else {
			st.GraphNodesAfter++
		}
		if comp[ref] >= 0 {
			continue
		}
		id := int32(len(compMembers))
		var members []overlay.NodeRef
		stack := []overlay.NodeRef{ref}
		comp[ref] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, e := range ov.Node(u).In {
				if alive[e.Peer] {
					if comp[e.Peer] < 0 {
						comp[e.Peer] = id
						stack = append(stack, e.Peer)
					}
				}
			}
			for _, e := range ov.Node(u).Out {
				if alive[e.Peer] {
					if comp[e.Peer] < 0 {
						comp[e.Peer] = id
						stack = append(stack, e.Peer)
					}
				}
			}
		}
		compMembers = append(compMembers, members)
	}
	st.Components = len(compMembers)
	for _, ms := range compMembers {
		if len(ms) > st.LargestComponent {
			st.LargestComponent = len(ms)
		}
	}

	// Solve each component with the min-cut construction of §4.4.
	for _, members := range compMembers {
		solveComponent(ov, members, weight)
	}
	return st, nil
}

// solveComponent runs the augmented-graph min-cut on one pruned component
// and assigns decisions: nodes reachable from s in the residual graph form
// Y (pull), the rest form X (push).
func solveComponent(ov *overlay.Overlay, members []overlay.NodeRef, weight []float64) {
	idx := make(map[overlay.NodeRef]int, len(members))
	for i, ref := range members {
		idx[ref] = i
	}
	n := len(members)
	s, t := n, n+1
	g := maxflow.New(n + 2)
	for i, ref := range members {
		w := weight[ref]
		switch {
		case w < 0:
			g.AddEdge(s, i, scaleWeight(-w))
		case w > 0:
			g.AddEdge(i, t, scaleWeight(w))
		}
		for _, e := range ov.Node(ref).Out {
			if j, ok := idx[e.Peer]; ok {
				g.AddEdge(i, j, maxflow.Inf)
			}
		}
	}
	g.MaxFlow(s, t)
	reach := g.ResidualReachable(s)
	for i, ref := range members {
		if reach[i] {
			ov.Node(ref).Dec = overlay.Pull
		} else {
			ov.Node(ref).Dec = overlay.Push
		}
	}
}

func scaleWeight(w float64) int64 {
	v := int64(math.Ceil(w * weightScale))
	if v < 1 {
		v = 1
	}
	return v
}

// RepairDecisions restores the decision-consistency invariant after the
// overlay was restructured (incremental maintenance or node splitting may
// introduce fresh pull-annotated partial nodes beneath existing push
// nodes). It extends the push region upward: every input of a push node
// becomes push, transitively. Returns the number of nodes flipped, or the
// error of an overlay with a cycle, whose decisions it leaves untouched.
func RepairDecisions(ov *overlay.Overlay) (int, error) {
	order, err := ov.TopoOrder()
	if err != nil {
		return 0, fmt.Errorf("dataflow: %w", err)
	}
	flips := 0
	for i := len(order) - 1; i >= 0; i-- {
		n := ov.Node(order[i])
		if n.Dec != overlay.Push {
			continue
		}
		for _, e := range n.In {
			in := ov.Node(e.Peer)
			if in.Dec != overlay.Push {
				in.Dec = overlay.Push
				flips++
			}
		}
	}
	return flips, nil
}

// DecideAll assigns the same decision to every node — the all-push and
// all-pull baselines of §5 (writers stay push in the all-pull baseline, as
// raw values must always be recorded).
func DecideAll(ov *overlay.Overlay, dec overlay.Decision) {
	ov.ForEachNode(func(_ overlay.NodeRef, n *overlay.Node) {
		if n.Kind == overlay.WriterNode {
			n.Dec = overlay.Push
			return
		}
		n.Dec = dec
	})
}
