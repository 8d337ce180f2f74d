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
func (o *Overlay) Depths() map[ReaderID]int { return o.Flatten().Depths() }

// DepthStats summarizes reader depths (see Topology.DepthStats).
func (o *Overlay) DepthStats() (avg float64, hist []int) { return o.Flatten().DepthStats() }

// ComputeStats gathers Stats for the overlay.
func (o *Overlay) ComputeStats() Stats { return o.Flatten().ComputeStats() }

// Depths returns, for every live reader, the overlay depth (see
// Overlay.Depths); nil when the topology has a cycle.
func (t *Topology) Depths() map[ReaderID]int {
	// Kahn's order: a node is taken once all its inputs were, so its depth
	// is final when it is.
	indeg := make([]int32, t.N)
	depth := make([]int, t.N)
	var queue []NodeRef
	live := 0
	for i := range t.N {
		depth[i] = -1
		if t.Dead[i] {
			continue
		}
		live++
		if indeg[i] = t.InOff[i+1] - t.InOff[i]; indeg[i] == 0 {
			queue = append(queue, NodeRef(i))
		}
	}
	for ordered := 0; ; ordered++ {
		if len(queue) == 0 {
			if ordered != live {
				return nil
			}
			break
		}
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if t.Kind[u] == WriterNode {
			depth[u] = 0
		} else {
			d := -1
			for _, pe := range t.InEdges(u) {
				peer, _ := UnpackRef(pe)
				if pd := depth[peer]; pd >= 0 && pd+1 > d {
					d = pd + 1
				}
			}
			if d < 0 && len(t.InEdges(u)) == 0 {
				d = 0
			}
			depth[u] = d
		}
		for _, pe := range t.OutEdges(u) {
			peer, _ := UnpackRef(pe)
			if indeg[peer]--; indeg[peer] == 0 {
				queue = append(queue, peer)
			}
		}
	}
	out := make(map[ReaderID]int)
	for i := range t.N {
		if !t.Dead[i] && t.Kind[i] == ReaderNode {
			out[ReaderID{t.Tag[i], t.GID[i]}] = max(depth[i], 0)
		}
	}
	return out
}

// DepthStats summarizes reader depths: average and a cumulative histogram
// (hist[d] = number of readers with depth <= d), as plotted in Fig 11(a).
func (t *Topology) DepthStats() (avg float64, hist []int) {
	ds := t.Depths()
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

// ComputeStats gathers Stats for the overlay the topology was taken from.
func (t *Topology) ComputeStats() Stats {
	s := Stats{
		Edges:        len(t.Out),
		AGEdges:      t.agEdges,
		SharingIndex: sharingIndex(len(t.Out), t.agEdges),
	}
	for i := range t.N {
		if t.Dead[i] {
			continue
		}
		switch t.Kind[i] {
		case WriterNode:
			s.Writers++
		case ReaderNode:
			s.Readers++
		case PartialNode:
			s.Partials++
		}
		for _, pe := range t.InEdges(NodeRef(i)) {
			if _, neg := UnpackRef(pe); neg {
				s.NegEdges++
			}
		}
	}
	avg, hist := t.DepthStats()
	s.AvgDepth = avg
	s.MaxDepth = max(len(hist)-1, 0)
	return s
}
