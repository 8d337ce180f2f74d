package overlay

import "repro/internal/graph"

// InputSet returns I(ovl): the multiset of writers whose values the node
// aggregates, as signed multiplicities (positive contributions minus
// negative-edge cancellations). A correct duplicate-sensitive overlay has
// every multiplicity equal to one.
func (o *Overlay) InputSet(ref NodeRef) map[graph.NodeID]int {
	memo := make(map[NodeRef]map[graph.NodeID]int)
	return o.inputSet(ref, memo)
}

func (o *Overlay) inputSet(ref NodeRef, memo map[NodeRef]map[graph.NodeID]int) map[graph.NodeID]int {
	if m, ok := memo[ref]; ok {
		return m
	}
	n := &o.nodes[ref]
	m := make(map[graph.NodeID]int)
	if n.Kind == WriterNode {
		m[n.GID] = 1
		memo[ref] = m
		return m
	}
	for _, e := range n.In {
		sub := o.inputSet(e.Peer, memo)
		sign := 1
		if e.Negative {
			sign = -1
		}
		for w, c := range sub {
			m[w] += sign * c
			if m[w] == 0 {
				delete(m, w)
			}
		}
	}
	memo[ref] = m
	return m
}

// Depths returns, for every live reader, the overlay depth: the length of
// the longest path from one of its input writers to the reader (paper
// §5.2, "Overlay Depth"). Readers with no inputs have depth 0.
func (o *Overlay) Depths() map[ReaderID]int {
	order, err := o.TopoOrder()
	if err != nil {
		return nil
	}
	depth := make([]int, len(o.nodes))
	for i := range depth {
		depth[i] = -1
	}
	for _, ref := range order {
		n := &o.nodes[ref]
		if n.Kind == WriterNode {
			depth[ref] = 0
			continue
		}
		d := -1
		for _, e := range n.In {
			if pd := depth[e.Peer]; pd >= 0 && pd+1 > d {
				d = pd + 1
			}
		}
		if d < 0 && len(n.In) == 0 {
			d = 0
		}
		depth[ref] = d
	}
	out := make(map[ReaderID]int)
	for id, ref := range o.readerOf {
		out[id] = max(depth[ref], 0)
	}
	return out
}

// DepthStats summarizes reader depths: average and a cumulative histogram
// (hist[d] = number of readers with depth <= d), as plotted in Fig 11(a).
func (o *Overlay) DepthStats() (avg float64, hist []int) {
	ds := o.Depths()
	if len(ds) == 0 {
		return 0, nil
	}
	maxD, sum := 0, 0
	for _, d := range ds {
		sum += d
		if d > maxD {
			maxD = d
		}
	}
	hist = make([]int, maxD+1)
	for _, d := range ds {
		hist[d]++
	}
	for d := 1; d <= maxD; d++ {
		hist[d] += hist[d-1]
	}
	return float64(sum) / float64(len(ds)), hist
}

// Stats bundles the overlay size metrics reported by the harness.
type Stats struct {
	Writers      int
	Readers      int
	Partials     int
	Edges        int
	NegEdges     int
	AGEdges      int
	SharingIndex float64
	AvgDepth     float64
	MaxDepth     int
}

// ComputeStats gathers Stats for the overlay.
func (o *Overlay) ComputeStats() Stats {
	s := Stats{
		Edges:        o.numEdges,
		AGEdges:      o.agEdges,
		SharingIndex: o.SharingIndex(),
	}
	o.ForEachNode(func(_ NodeRef, n *Node) {
		switch n.Kind {
		case WriterNode:
			s.Writers++
		case ReaderNode:
			s.Readers++
		case PartialNode:
			s.Partials++
		}
		for _, e := range n.In {
			if e.Negative {
				s.NegEdges++
			}
		}
	})
	avg, hist := o.DepthStats()
	s.AvgDepth = avg
	s.MaxDepth = len(hist) - 1
	if s.MaxDepth < 0 {
		s.MaxDepth = 0
	}
	return s
}
