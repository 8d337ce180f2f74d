package dataflow

import (
	"fmt"
	"math"
	"slices"

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

// Partition makes optimal push/pull decisions for every live slot of the
// topology (§4.4): node weights w(v) = PULL(v) − PUSH(v) are computed from
// the propagated frequencies, the P1/P2 pruning rules run to fixpoint, and
// each remaining connected component is solved exactly with an s-t min-cut.
// It returns top with the decisions (Topology.WithDecisions); a dead slot
// keeps the decision it had.
func Partition(top *overlay.Topology, f *Freqs, m CostModel) (*overlay.Topology, PruneStats) {
	var st PruneStats

	dec := slices.Clone(top.Dec)
	weight := make([]float64, top.N)
	alive := make([]bool, top.N)
	indeg := make([]int, top.N)
	outdeg := make([]int, top.N)
	refs := make([]overlay.NodeRef, 0, top.N)
	for ref := range overlay.NodeRef(top.N) {
		if top.Dead[ref] {
			continue
		}
		weight[ref] = f.Weight(ref, m)
		// Writers are always annotated push (§2.2.1): clamping their
		// weight to zero guarantees rule P1 prunes every writer into X
		// before the min-cut runs, without constraining anyone else.
		if top.Kind[ref] == overlay.WriterNode && weight[ref] < 0 {
			weight[ref] = 0
		}
		alive[ref] = true
		indeg[ref] = len(top.InEdges(ref))
		outdeg[ref] = len(top.OutEdges(ref))
		refs = append(refs, ref)
		st.NodesBefore++
		if top.Kind[ref] == overlay.PartialNode {
			st.VirtualNodesBefore++
		} else {
			st.GraphNodesBefore++
		}
	}

	// P1/P2 pruning to fixpoint: P1 removes positive-weight nodes with no
	// remaining inputs (assign push); P2 removes negative-weight nodes
	// with no remaining outputs (assign pull). Zero-weight nodes are
	// indifferent; treat them as prunable on either side.
	// Each node enters once up front and once more per edge it is an end
	// of, so the queue never outgrows this.
	queue := append(make([]overlay.NodeRef, 0, len(refs)+2*len(top.Out)), refs...)
	for len(queue) > 0 {
		ref := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[ref] {
			continue
		}
		switch {
		case weight[ref] >= 0 && indeg[ref] == 0:
			dec[ref] = overlay.Push
		case weight[ref] <= 0 && outdeg[ref] == 0:
			dec[ref] = overlay.Pull
		default:
			continue
		}
		alive[ref] = false
		for _, pe := range top.OutEdges(ref) {
			if peer, _ := overlay.UnpackRef(pe); alive[peer] {
				indeg[peer]--
				queue = append(queue, peer)
			}
		}
		for _, pe := range top.InEdges(ref) {
			if peer, _ := overlay.UnpackRef(pe); alive[peer] {
				outdeg[peer]--
				queue = append(queue, peer)
			}
		}
	}

	// Gather survivors and their connected components (undirected).
	// comp[ref] is the component of a gathered survivor, -1 before.
	comp := make([]int32, top.N)
	for i := range comp {
		comp[i] = -1
	}
	var compMembers [][]overlay.NodeRef
	for _, ref := range refs {
		if !alive[ref] {
			continue
		}
		st.NodesAfter++
		if top.Kind[ref] == overlay.PartialNode {
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
			for _, edges := range [2][]int32{top.InEdges(u), top.OutEdges(u)} {
				for _, pe := range edges {
					if peer, _ := overlay.UnpackRef(pe); alive[peer] && comp[peer] < 0 {
						comp[peer] = id
						stack = append(stack, peer)
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
		solveComponent(top, members, weight, dec)
	}
	return top.WithDecisions(dec), st
}

// Decide is Partition on ov's Topology, for callers that hold a pointer
// overlay: the decisions are set on ov.
func Decide(ov *overlay.Overlay, f *Freqs, m CostModel) (PruneStats, error) {
	top, st := Partition(ov.Flatten(), f, m)
	for ref, d := range top.Dec {
		ov.Node(overlay.NodeRef(ref)).Dec = d
	}
	return st, nil
}

// solveComponent runs the augmented-graph min-cut on one pruned component
// and assigns its decisions in dec: nodes reachable from s in the residual
// graph form Y (pull), the rest form X (push).
func solveComponent(top *overlay.Topology, members []overlay.NodeRef, weight []float64, dec []overlay.Decision) {
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
		for _, pe := range top.OutEdges(ref) {
			peer, _ := overlay.UnpackRef(pe)
			if j, ok := idx[peer]; ok {
				g.AddEdge(i, j, maxflow.Inf)
			}
		}
	}
	g.MaxFlow(s, t)
	reach := g.ResidualReachable(s)
	for i, ref := range members {
		if reach[i] {
			dec[ref] = overlay.Pull
		} else {
			dec[ref] = overlay.Push
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
// becomes push, transitively. It returns top with the repaired decisions,
// or the error of a topology with a cycle.
func RepairDecisions(top *overlay.Topology) (*overlay.Topology, error) {
	order, err := top.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	dec := slices.Clone(top.Dec)
	for i := len(order) - 1; i >= 0; i-- {
		if dec[order[i]] != overlay.Push {
			continue
		}
		for _, pe := range top.InEdges(order[i]) {
			peer, _ := overlay.UnpackRef(pe)
			dec[peer] = overlay.Push
		}
	}
	return top.WithDecisions(dec), nil
}

// DecideAll returns top with the same decision on every live slot — the
// all-push and all-pull baselines of §5 (writers stay push in the all-pull
// baseline, as raw values must always be recorded).
func DecideAll(top *overlay.Topology, d overlay.Decision) *overlay.Topology {
	dec := slices.Clone(top.Dec)
	for ref := range dec {
		switch {
		case top.Dead[ref]:
		case top.Kind[ref] == overlay.WriterNode:
			dec[ref] = overlay.Push
		default:
			dec[ref] = d
		}
	}
	return top.WithDecisions(dec)
}
