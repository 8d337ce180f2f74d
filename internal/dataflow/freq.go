package dataflow

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// Workload carries the expected read (query) and write (update) frequencies
// of the data-graph nodes — the r(v) and w(v) of §4.1, typically estimated
// from recent history.
type Workload struct {
	Read  []float64 // indexed by graph.NodeID
	Write []float64
}

// NewWorkload allocates a zero workload for maxID nodes.
func NewWorkload(maxID int) *Workload {
	return &Workload{
		Read:  make([]float64, maxID),
		Write: make([]float64, maxID),
	}
}

// Uniform returns a workload where every node reads and writes at the given
// rates.
func Uniform(maxID int, read, write float64) *Workload {
	w := NewWorkload(maxID)
	for i := range w.Read {
		w.Read[i] = read
		w.Write[i] = write
	}
	return w
}

// rateOf returns rates[v], or 0 for a node outside rates.
func rateOf(rates []float64, v graph.NodeID) float64 {
	if uint(v) < uint(len(rates)) {
		return rates[v]
	}
	return 0
}

// Freqs holds the propagated push and pull frequencies f_h(u), f_l(u) for
// every overlay node (§4.1), plus the effective input count used for
// H(k)/L(k) (the window size for writers, the in-degree otherwise).
type Freqs struct {
	Push []float64 // indexed by overlay.NodeRef
	Pull []float64
	Deg  []int
}

// Frequencies propagates frequencies through the topology: push
// frequencies flow downstream from writers (f_h(u) = Σ f_h of inputs), pull
// frequencies flow upstream from readers (f_l(u) = Σ f_l of consumers).
// windowSize is the average number of in-window values per writer, which
// determines the writer-node cost H(windowSize)/L(windowSize) (§4.2).
func Frequencies(top *overlay.Topology, wl *Workload, windowSize int) (*Freqs, error) {
	order, err := top.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	if windowSize < 1 {
		windowSize = 1
	}
	f := &Freqs{
		Push: make([]float64, top.N),
		Pull: make([]float64, top.N),
		Deg:  make([]int, top.N),
	}
	// Downstream pass: push frequencies.
	for _, ref := range order {
		if top.Kind[ref] == overlay.WriterNode {
			f.Push[ref] = rateOf(wl.Write, top.GID[ref])
			f.Deg[ref] = windowSize
			continue
		}
		f.Deg[ref] = len(top.InEdges(ref))
		f.Push[ref] = sumOver(f.Push, top.InEdges(ref))
	}
	// Upstream pass: pull frequencies.
	for i := len(order) - 1; i >= 0; i-- {
		ref := order[i]
		if top.Kind[ref] == overlay.ReaderNode {
			f.Pull[ref] = rateOf(wl.Read, top.GID[ref])
			continue
		}
		f.Pull[ref] = sumOver(f.Pull, top.OutEdges(ref))
	}
	return f, nil
}

// sumOver sums x over the peers of packed edges, in edge order.
func sumOver(x []float64, edges []int32) float64 {
	sum := 0.0
	for _, pe := range edges {
		peer, _ := overlay.UnpackRef(pe)
		sum += x[peer]
	}
	return sum
}

// ComputeFreqs is Frequencies on ov's Topology, for callers that hold a
// pointer overlay.
func ComputeFreqs(ov *overlay.Overlay, wl *Workload, windowSize int) (*Freqs, error) {
	return Frequencies(ov.Flatten(), wl, windowSize)
}

// PushCost returns PUSH(v) = f_h(v) · H(deg(v)).
func (f *Freqs) PushCost(ref overlay.NodeRef, m CostModel) float64 {
	return f.Push[ref] * m.PushCost(f.Deg[ref])
}

// PullCost returns PULL(v) = f_l(v) · L(deg(v)).
func (f *Freqs) PullCost(ref overlay.NodeRef, m CostModel) float64 {
	return f.Pull[ref] * m.PullCost(f.Deg[ref])
}

// Weight returns w(v) = PULL(v) − PUSH(v): the benefit of assigning v a
// push decision (§4.4).
func (f *Freqs) Weight(ref overlay.NodeRef, m CostModel) float64 {
	return f.PullCost(ref, m) - f.PushCost(ref, m)
}

// TotalCost evaluates the §4.3 objective for the topology's decisions:
// Σ_{v∈X} PUSH(v) + Σ_{v∈Y} PULL(v).
func TotalCost(top *overlay.Topology, f *Freqs, m CostModel) float64 {
	total := 0.0
	for ref := range overlay.NodeRef(top.N) {
		switch {
		case top.Dead[ref]:
		case top.Dec[ref] == overlay.Push:
			total += f.PushCost(ref, m)
		default:
			total += f.PullCost(ref, m)
		}
	}
	return total
}
