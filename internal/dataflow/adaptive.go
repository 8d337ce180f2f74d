package dataflow

import (
	"slices"
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
	mu  sync.Mutex
	top *overlay.Topology
	dec []overlay.Decision // top.Dec, flipped by Rebalance
	m   CostModel
	// observed activity since the adaptor was built, per slot of top.
	pushes []float64 // updates arriving at the node's inputs
	pulls  []float64 // reads traversing the node
}

// minSamples gates rebalancing: a node is judged only when its window holds
// this much combined activity.
const minSamples = 64

// NewAdaptor judges the Topology top, whose decisions were already made, on
// a copy of those decisions. It prices a frontier node by its in-degree,
// which is what a frequency pass would give it: a frontier node is never a
// writer, and a non-writer's effective input count is its in-degree.
func NewAdaptor(top *overlay.Topology, m CostModel) *Adaptor {
	return &Adaptor{
		top:    top,
		dec:    slices.Clone(top.Dec),
		m:      m,
		pushes: make([]float64, top.N),
		pulls:  make([]float64, top.N),
	}
}

// ObserveBatch adds a window of push and pull counts, one entry per slot of
// the adaptor's Topology (the engine's drained observations).
func (a *Adaptor) ObserveBatch(pushes, pulls []float64) {
	a.mu.Lock()
	for ref, c := range pushes {
		a.pushes[ref] += c
	}
	for ref, c := range pulls {
		a.pulls[ref] += c
	}
	a.mu.Unlock()
}

// frontier reports whether non-writer ref may flip unilaterally: a pull node
// all of whose inputs are push, or a push node all of whose consumers are
// pull — a push reader, having no consumers, always is.
func (a *Adaptor) frontier(ref overlay.NodeRef) bool {
	edges, want := a.top.OutEdges(ref), overlay.Pull
	if a.dec[ref] == overlay.Pull {
		edges, want = a.top.InEdges(ref), overlay.Push
	}
	for _, pe := range edges {
		if peer, _ := overlay.UnpackRef(pe); a.dec[peer] != want {
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
func (a *Adaptor) arrivals(ref overlay.NodeRef) float64 {
	if a.dec[ref] == overlay.Push {
		return a.pushes[ref]
	}
	sum := 0.0
	for _, pe := range a.top.InEdges(ref) {
		src, _ := overlay.UnpackRef(pe)
		sum += a.pushes[src]
	}
	return sum
}

// contradicted reports whether frontier node ref has a full observation
// window whose weight w(v) = PULL_obs − PUSH_obs says its decision is the
// wrong one, with the arrivals that weight was computed from.
func (a *Adaptor) contradicted(ref overlay.NodeRef) (bool, float64) {
	if !a.frontier(ref) {
		return false, 0
	}
	arrived := a.arrivals(ref)
	if arrived+a.pulls[ref] < minSamples {
		return false, 0
	}
	deg := len(a.top.InEdges(ref))
	w := a.pulls[ref]*a.m.PullCost(deg) - arrived*a.m.PushCost(deg)
	return (a.dec[ref] == overlay.Pull && w > 0) || (a.dec[ref] == overlay.Push && w < 0), arrived
}

// Rebalance flips, in slot order, every frontier node whose window holds
// minSamples observations and contradicts its decision, using the observed
// frequencies as the estimates. A flip hands what it observed to the
// neighbours it makes frontier (its arrivals downstream, its reads
// upstream), so one that follows later in the same pass is judged on
// complete counts. A pass that flipped nothing carries every count into the
// next, so a node whose traffic is too thin to fill a window in one pass is
// judged once it has filled across passes.
//
// It returns the Topology to install — the adaptor's with the flipped
// decisions (Topology.WithDecisions), so a Rebuild inherits every cell by
// slot, or the adaptor's own when none flipped — and the number of flips. An
// adaptor that flipped is spent: the Topology it returned shares its
// decisions, and the installed one gets an adaptor of its own, whose
// counters all start over — a pull node's arrivals are read off its inputs,
// so all counters must cover the same span.
func (a *Adaptor) Rebalance() (*overlay.Topology, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	flips := 0
	for ref := range overlay.NodeRef(a.top.N) {
		if a.top.Dead[ref] || a.top.Kind[ref] == overlay.WriterNode {
			continue // writers are always push
		}
		flip, arrived := a.contradicted(ref)
		if !flip {
			continue
		}
		flips++
		if a.dec[ref] == overlay.Pull {
			a.dec[ref] = overlay.Push
			a.pushes[ref] = arrived
			continue
		}
		a.dec[ref] = overlay.Pull
		for _, pe := range a.top.InEdges(ref) {
			src, _ := overlay.UnpackRef(pe)
			a.pulls[src] += a.pulls[ref]
		}
	}
	if flips == 0 {
		return a.top, 0
	}
	return a.top.WithDecisions(a.dec), flips
}
