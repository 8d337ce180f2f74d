package dataflow

import (
	"sync"

	"repro/internal/overlay"
)

// Adaptor implements the adaptive scheme of §4.8: it monitors observed
// push/pull activity at the push/pull frontier — pull nodes whose inputs
// are all push, and push nodes whose consumers are all pull — and flips a
// frontier node's decision when its observed traffic contradicts the
// estimate it was decided under. Only frontier nodes can flip unilaterally
// without violating the decision-consistency constraint.
type Adaptor struct {
	mu sync.Mutex
	ov *overlay.Overlay
	m  CostModel
	// observed activity since the last Rebalance, per overlay node.
	pushes []float64 // updates arriving at the node's inputs
	pulls  []float64 // reads traversing the node
	deg    []int
	// MinSamples gates rebalancing: a node is reconsidered only after
	// this much combined activity (the monitoring window).
	MinSamples float64
}

// NewAdaptor wraps an overlay whose decisions were already made.
func NewAdaptor(ov *overlay.Overlay, f *Freqs, m CostModel) *Adaptor {
	return &Adaptor{
		ov:         ov,
		m:          m,
		pushes:     make([]float64, ov.Len()),
		pulls:      make([]float64, ov.Len()),
		deg:        append([]int(nil), f.Deg...),
		MinSamples: 64,
	}
}

// ObservePush records that an update reached node ref (out-of-range refs
// are ignored; see ObserveBatch).
func (a *Adaptor) ObservePush(ref overlay.NodeRef) {
	a.mu.Lock()
	if int(ref) < len(a.pushes) {
		a.pushes[ref]++
	}
	a.mu.Unlock()
}

// ObservePull records that a read pulled node ref (out-of-range refs are
// ignored; see ObserveBatch).
func (a *Adaptor) ObservePull(ref overlay.NodeRef) {
	a.mu.Lock()
	if int(ref) < len(a.pulls) {
		a.pulls[ref]++
	}
	a.mu.Unlock()
}

// ObserveBatch records bulk counts (used by the execution engine to avoid
// per-event locking). Refs beyond the adaptor's node range are ignored:
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
// whose inputs are push, or a push node all of whose consumers are pull.
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
	return len(n.Out) > 0
}

// Rebalance reconsiders every frontier node with enough observed activity:
// using the observed frequencies as the estimates, it flips the decision
// when the observed weight w(v) = PULL_obs − PUSH_obs contradicts it.
// Counters of reconsidered nodes reset. It returns the number of flips.
func (a *Adaptor) Rebalance() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	flips := 0
	a.ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		if !a.frontier(ref) {
			return
		}
		obs := a.pushes[ref] + a.pulls[ref]
		if obs < a.MinSamples {
			return
		}
		w := a.pulls[ref]*a.m.PullCost(a.deg[ref]) - a.pushes[ref]*a.m.PushCost(a.deg[ref])
		switch {
		case n.Dec == overlay.Pull && w > 0:
			n.Dec = overlay.Push
			flips++
		case n.Dec == overlay.Push && w < 0:
			n.Dec = overlay.Pull
			flips++
		}
		a.pushes[ref] = 0
		a.pulls[ref] = 0
	})
	return flips
}

// Pressure counts the frontier nodes whose observed activity has filled the
// monitoring window AND contradicts their current decision — exactly the
// flips the next Rebalance would apply. Counters are not consumed, so a
// background controller can poll Pressure cheaply and only pay for a
// Rebalance (and the push-state resync it forces) when there is something
// to flip.
func (a *Adaptor) Pressure() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	pending := 0
	a.ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		if !a.frontier(ref) {
			return
		}
		if a.pushes[ref]+a.pulls[ref] < a.MinSamples {
			return
		}
		w := a.pulls[ref]*a.m.PullCost(a.deg[ref]) - a.pushes[ref]*a.m.PushCost(a.deg[ref])
		if (n.Dec == overlay.Pull && w > 0) || (n.Dec == overlay.Push && w < 0) {
			pending++
		}
	})
	return pending
}
