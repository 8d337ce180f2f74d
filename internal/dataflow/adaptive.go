package dataflow

import (
	"sync"

	"repro/internal/overlay"
)

// Adaptor implements the adaptive scheme of §4.8: it monitors observed
// push/pull activity at the push/pull frontier — pull nodes whose inputs
// are all push, and push nodes whose consumers are all pull (push readers
// included) — and flips a frontier node's decision when its observed
// traffic contradicts the estimate it was decided under. Only frontier
// nodes can flip unilaterally without violating the decision-consistency
// constraint.
type Adaptor struct {
	mu sync.Mutex
	ov *overlay.Overlay
	m  CostModel
	// observed activity since the last Rebalance that flipped a node, per
	// overlay node.
	pushes []float64 // updates arriving at the node's inputs
	pulls  []float64 // reads traversing the node
}

// minSamples gates rebalancing: a node is judged only when its window holds
// this much combined activity.
const minSamples = 64

// NewAdaptor wraps an overlay whose decisions were already made. It prices a
// frontier node by the overlay's in-degree, which is what a frequency pass
// would give it: a frontier node is never a writer, and a non-writer's
// effective input count is len(In). The overlay's structure must not change
// under the adaptor; build a new one after restructuring it.
func NewAdaptor(ov *overlay.Overlay, m CostModel) *Adaptor {
	return &Adaptor{
		ov:     ov,
		m:      m,
		pushes: make([]float64, ov.Len()),
		pulls:  make([]float64, ov.Len()),
	}
}

// ObserveBatch records a window of push and pull counts per overlay node
// (the engine's drained observations). Refs beyond the adaptor's node range are ignored:
// engine snapshots can briefly outgrow an adaptor while structural
// maintenance is replacing it, and a dropped observation is harmless
// whereas an out-of-range write would panic while holding the mutex.
func (a *Adaptor) ObserveBatch(pushes, pulls map[overlay.NodeRef]float64) {
	a.mu.Lock()
	for ref, c := range pushes {
		if int(ref) < len(a.pushes) {
			a.pushes[ref] += c
		}
	}
	for ref, c := range pulls {
		if int(ref) < len(a.pulls) {
			a.pulls[ref] += c
		}
	}
	a.mu.Unlock()
}

// frontier reports whether ref may flip unilaterally: a pull node all of
// whose inputs are push, or a push node all of whose consumers are pull — a
// push reader, having no consumers, always is.
func (a *Adaptor) frontier(ref overlay.NodeRef) bool {
	n := a.ov.Node(ref)
	if n.Kind == overlay.WriterNode {
		return false
	}
	if n.Dec == overlay.Pull {
		for _, e := range n.In {
			if a.ov.Node(e.Peer).Dec != overlay.Push {
				return false
			}
		}
		return true
	}
	for _, e := range n.Out {
		if a.ov.Node(e.Peer).Dec != overlay.Pull {
			return false
		}
	}
	return true
}

// arrivals is the number of updates that reached frontier node ref this
// window, or would have had it been push. The engine counts a push only
// inside a writer's push closure, so a pull node's own counter stays at
// zero whatever its inputs' write rate; its inputs are all push, and every
// update counted at one of them is an update a push ref would have taken.
func (a *Adaptor) arrivals(ref overlay.NodeRef, n *overlay.Node) float64 {
	if n.Dec == overlay.Push {
		return a.pushes[ref]
	}
	sum := 0.0
	for _, e := range n.In {
		sum += a.pushes[e.Peer]
	}
	return sum
}

// contradicted reports whether frontier node ref has a full observation
// window whose weight w(v) = PULL_obs − PUSH_obs says its decision is the
// wrong one, with the arrivals that weight was computed from.
func (a *Adaptor) contradicted(ref overlay.NodeRef, n *overlay.Node) (bool, float64) {
	if !a.frontier(ref) {
		return false, 0
	}
	arrived := a.arrivals(ref, n)
	if arrived+a.pulls[ref] < minSamples {
		return false, 0
	}
	deg := len(n.In)
	w := a.pulls[ref]*a.m.PullCost(deg) - arrived*a.m.PushCost(deg)
	return (n.Dec == overlay.Pull && w > 0) || (n.Dec == overlay.Push && w < 0), arrived
}

// Rebalance flips every frontier node whose window holds minSamples
// observations and contradicts its decision, using the observed frequencies
// as the estimates. A flip hands what it observed to the neighbours it makes
// frontier (its arrivals downstream, its reads upstream), so one that
// follows later in the same pass is judged on complete counts. The window
// closes only on a pass that flipped: then every node's counters restart —
// a pull node's arrivals are read off its inputs, so all counters must
// cover the same span. A pass that flipped nothing carries every count into
// the next pass, so a node whose traffic is too thin to fill a window in
// one pass is judged once it has filled across passes. It returns the
// number of flips.
func (a *Adaptor) Rebalance() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	flips := 0
	a.ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		flip, arrived := a.contradicted(ref, n)
		if !flip {
			return
		}
		flips++
		if n.Dec == overlay.Pull {
			n.Dec = overlay.Push
			a.pushes[ref] = arrived
			return
		}
		n.Dec = overlay.Pull
		for _, e := range n.In {
			a.pulls[e.Peer] += a.pulls[ref]
		}
	})
	if flips > 0 {
		clear(a.pushes)
		clear(a.pulls)
	}
	return flips
}
