package overlay

import "repro/internal/graph"

// Topology is an immutable, flattened CSR-style snapshot of the overlay:
// node kinds, dataflow decisions, and both edge directions packed into
// contiguous int32 arrays. The execution engine compiles its plan from a
// Topology so its hot paths walk cache-friendly slices instead of the
// pointer-heavy Node/HalfEdge representation, and never touch the live
// (mutable) overlay during reads and writes.
//
// Edges are packed as peer<<1 | sign, where sign is 1 for negative edges
// (see PackRef / UnpackRef).
//
// A Topology holds everything the overlay it was taken from holds, so it is
// also the overlay at rest: Thaw turns it back into a mutable Overlay with
// the same slots, in the same lineage, for the structural operations that
// need one.
//
// Concurrency contract: a Topology is deeply immutable after Flatten
// returns — it shares no memory with the overlay it was taken from — so it
// may be read from any number of goroutines without synchronization, and
// it stays valid while the live overlay keeps mutating.
type Topology struct {
	// N is the number of node slots, dead slots included (refs are stable).
	N int
	// Kind and Dec are indexed by NodeRef. Dead slots keep their last kind.
	Kind []NodeKind
	Dec  []Decision
	Dead []bool
	// GID maps a slot back to its data-graph node (writers and readers);
	// -1 for partial aggregation nodes. Tag is a reader slot's query tag
	// (Node.Tag), 0 for every other slot.
	GID []graph.NodeID
	Tag []int32
	// Out/OutOff is the downstream CSR: node r's out-edges are
	// Out[OutOff[r]:OutOff[r+1]], each packed with PackRef.
	OutOff []int32
	Out    []int32
	// In/InOff is the upstream CSR in the same layout.
	InOff []int32
	In    []int32
	// Writers lists live writer refs.
	Writers []NodeRef
	// WriterOf maps data-graph nodes to their writer slots: a dense array
	// indexed by node id, NoNode where the node has no slot, sized to the
	// largest id that has one (use Writer, which bounds-checks).
	WriterOf []NodeRef
	// readerOf holds one such array per query tag (use Reader).
	readerOf [][]NodeRef
	// TagReaders counts the live readers each query tag owns (single-query
	// overlays have everything under tag 0), precomputed so per-view stats
	// never walk the reader map.
	TagReaders map[int32]int
	// agEdges is the overlay's |E(AG)| and lineage its Lineage.
	agEdges int
	lineage uint64
}

// AGEdges returns |E(AG)| of the overlay the topology was taken from.
func (t *Topology) AGEdges() int { return t.agEdges }

// Lineage returns the lineage of the overlay the topology was taken from
// (Overlay.Lineage).
func (t *Topology) Lineage() uint64 { return t.lineage }

// Writer returns the writer slot of data-graph node v, or NoNode.
func (t *Topology) Writer(v graph.NodeID) NodeRef { return slotOf(t.WriterOf, v) }

// Reader returns query tag's reader slot of data-graph node v, or NoNode.
func (t *Topology) Reader(tag int32, v graph.NodeID) NodeRef {
	if uint32(tag) < uint32(len(t.readerOf)) {
		return slotOf(t.readerOf[tag], v)
	}
	return NoNode
}

func slotOf(dense []NodeRef, v graph.NodeID) NodeRef {
	if uint(v) < uint(len(dense)) {
		return dense[v]
	}
	return NoNode
}

// denseSlots lays a node → slot map out as an array indexed by node id.
func denseSlots(m map[graph.NodeID]NodeRef) []NodeRef {
	size := 0
	for v := range m {
		size = max(size, int(v)+1)
	}
	dense := noSlots(size)
	for v, ref := range m {
		if v >= 0 {
			dense[v] = ref
		}
	}
	return dense
}

// readerSlots lays the reader map out as one dense node-indexed array per
// query tag.
func readerSlots(m map[ReaderID]NodeRef, tags int32) [][]NodeRef {
	size := make([]int, tags)
	for id := range m {
		size[id.Tag] = max(size[id.Tag], int(id.Node)+1)
	}
	slots := make([][]NodeRef, tags)
	for tag := range slots {
		slots[tag] = noSlots(size[tag])
	}
	for id, ref := range m {
		if id.Node >= 0 {
			slots[id.Tag][id.Node] = ref
		}
	}
	return slots
}

func noSlots(n int) []NodeRef {
	s := make([]NodeRef, n)
	for i := range s {
		s[i] = NoNode
	}
	return s
}

// PackRef packs a node ref and an edge sign into one int32.
func PackRef(r NodeRef, negative bool) int32 {
	p := r << 1
	if negative {
		p |= 1
	}
	return p
}

// UnpackRef splits a packed edge back into (ref, negative).
func UnpackRef(p int32) (NodeRef, bool) { return p >> 1, p&1 == 1 }

// Flatten snapshots the overlay into a Topology. The result shares nothing
// with the overlay; callers may keep using it after the overlay mutates.
func (o *Overlay) Flatten() *Topology {
	n := len(o.nodes)
	t := &Topology{
		N:          n,
		Kind:       make([]NodeKind, n),
		Dec:        make([]Decision, n),
		Dead:       make([]bool, n),
		GID:        make([]graph.NodeID, n),
		Tag:        make([]int32, n),
		OutOff:     make([]int32, n+1),
		InOff:      make([]int32, n+1),
		WriterOf:   denseSlots(o.writerOf),
		readerOf:   readerSlots(o.readerOf, o.tags),
		TagReaders: make(map[int32]int),
		agEdges:    o.agEdges,
		lineage:    o.lineage,
	}
	outTotal, inTotal := 0, 0
	for i := range o.nodes {
		nd := &o.nodes[i]
		t.Kind[i] = nd.Kind
		t.Dec[i] = nd.Dec
		t.Dead[i] = nd.dead
		t.GID[i] = nd.GID
		t.Tag[i] = nd.Tag
		outTotal += len(nd.Out)
		inTotal += len(nd.In)
	}
	t.Out = make([]int32, 0, outTotal)
	t.In = make([]int32, 0, inTotal)
	for i := range o.nodes {
		nd := &o.nodes[i]
		t.OutOff[i] = int32(len(t.Out))
		for _, e := range nd.Out {
			t.Out = append(t.Out, PackRef(e.Peer, e.Negative))
		}
		t.InOff[i] = int32(len(t.In))
		for _, e := range nd.In {
			t.In = append(t.In, PackRef(e.Peer, e.Negative))
		}
		if !nd.dead && nd.Kind == WriterNode {
			t.Writers = append(t.Writers, NodeRef(i))
		}
		if !nd.dead && nd.Kind == ReaderNode {
			t.TagReaders[nd.Tag]++
		}
	}
	t.OutOff[n] = int32(len(t.Out))
	t.InOff[n] = int32(len(t.In))
	return t
}

// OutEdges returns node r's packed out-edges.
func (t *Topology) OutEdges(r NodeRef) []int32 { return t.Out[t.OutOff[r]:t.OutOff[r+1]] }

// InEdges returns node r's packed in-edges.
func (t *Topology) InEdges(r NodeRef) []int32 { return t.In[t.InOff[r]:t.InOff[r+1]] }

// Thaw is the inverse of Flatten: it returns a mutable overlay with t's
// slots, live and dead, its edges in their In and Out order, its decisions,
// tags and |E(AG)|, in t's lineage — Flatten of the result is t again, and
// Save writes the bytes the flattened overlay would have written. Each
// direction's edges share one backing array, capped at every node's own
// list, so a later change to one node's edges copies that list alone.
func Thaw(t *Topology) *Overlay {
	o := &Overlay{
		nodes:    make([]Node, t.N),
		writerOf: make(map[graph.NodeID]NodeRef, len(t.Writers)),
		readerOf: make(map[ReaderID]NodeRef),
		numEdges: len(t.Out),
		agEdges:  t.agEdges,
		tags:     int32(len(t.readerOf)),
		lineage:  t.lineage,
	}
	in, out := halfEdges(t.In), halfEdges(t.Out)
	for i := range o.nodes {
		n := &o.nodes[i]
		*n = Node{Kind: t.Kind[i], GID: t.GID[i], Dec: t.Dec[i], dead: t.Dead[i], Tag: t.Tag[i]}
		if n.dead {
			o.numDead++
			continue
		}
		n.In = in[t.InOff[i]:t.InOff[i+1]:t.InOff[i+1]]
		n.Out = out[t.OutOff[i]:t.OutOff[i+1]:t.OutOff[i+1]]
	}
	for v, ref := range t.WriterOf {
		if ref != NoNode {
			o.writerOf[graph.NodeID(v)] = ref
		}
	}
	for tag, dense := range t.readerOf {
		for v, ref := range dense {
			if ref != NoNode {
				o.readerOf[ReaderID{int32(tag), graph.NodeID(v)}] = ref
			}
		}
	}
	return o
}

// halfEdges unpacks a packed edge array.
func halfEdges(packed []int32) []HalfEdge {
	hs := make([]HalfEdge, len(packed))
	for i, p := range packed {
		hs[i].Peer, hs[i].Negative = UnpackRef(p)
	}
	return hs
}
