// Package overlay implements the aggregation overlay graph OG (paper
// §2.2.1): a directed acyclic graph with writer nodes, reader nodes and
// partial aggregation nodes, possibly containing negative edges, annotated
// with push/pull dataflow decisions. It also provides the metrics used to
// evaluate overlays (sharing index, depth) and a validator for the
// single-contribution correctness property.
//
// Concurrency contract: an Overlay is a mutable build-time structure and is
// NOT safe for concurrent use — construction, maintenance and decision
// changes must be serialized by the caller (core.System uses one structural
// mutex). Execution never reads the live overlay: the engine operates on
// immutable Topology snapshots taken with Flatten, which are safe to share
// freely across goroutines. A Topology loses nothing of the overlay, so it
// is also how an overlay is kept at rest: Thaw gives the mutable overlay
// back, slot for slot, when a structural operation needs it.
package overlay

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// NodeKind distinguishes the three overlay node types.
type NodeKind uint8

// Overlay node kinds.
const (
	// WriterNode corresponds to a data-graph node producing content.
	WriterNode NodeKind = iota
	// ReaderNode corresponds to a data-graph node with a standing query.
	ReaderNode
	// PartialNode is an intermediate partial aggregation node.
	PartialNode
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case WriterNode:
		return "writer"
	case ReaderNode:
		return "reader"
	case PartialNode:
		return "partial"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NodeRef indexes a node within an Overlay.
type NodeRef = int32

// NoNode is the invalid NodeRef.
const NoNode NodeRef = -1

// Decision is the dataflow (pre-computation) annotation of an overlay node.
type Decision uint8

// Dataflow decisions.
const (
	// Push keeps the node's partial aggregate incrementally up to date.
	Push Decision = iota
	// Pull computes the node's aggregate on demand.
	Pull
)

// String returns "push" or "pull".
func (d Decision) String() string {
	if d == Push {
		return "push"
	}
	return "pull"
}

// HalfEdge is one endpoint's view of an overlay edge.
type HalfEdge struct {
	Peer NodeRef
	// Negative marks a "subtracting" edge (paper §2.2.1): the
	// contribution of Peer is removed from the aggregate at this node.
	Negative bool
}

// Node is a single overlay node.
type Node struct {
	Kind NodeKind
	// GID is the underlying data-graph node for writers and readers;
	// -1 for partial aggregation nodes.
	GID graph.NodeID
	// In lists upstream edges (inputs); Out lists downstream edges.
	In  []HalfEdge
	Out []HalfEdge
	// Dec is the dataflow decision; writers are always Push.
	Dec Decision
	// dead marks removed nodes (slots are not reused; refs stay stable).
	dead bool
	// Tag is the query a reader answers for: in a merged multi-query
	// overlay each member query owns its own reader of a data-graph node.
	// Always 0 for writers, partials and single-query overlays. Last, so
	// it fills the padding after Dec and dead.
	Tag int32
}

// ReaderID identifies a reader: the query tag it answers for and its
// data-graph node.
type ReaderID struct {
	Tag  int32
	Node graph.NodeID
}

// Overlay is the aggregation overlay graph. It is not safe for concurrent
// use (see the package comment); take a Flatten snapshot to share a
// read-only view with executing goroutines.
type Overlay struct {
	nodes    []Node
	writerOf map[graph.NodeID]NodeRef
	readerOf map[ReaderID]NodeRef
	numEdges int
	agEdges  int // |E(AG)|, the sharing-index denominator
	numDead  int
	// tags is one past the largest tag a reader was ever added under.
	tags int32
	// lineage names the slot numbering (see Lineage).
	lineage uint64
}

// lineages hands out lineage ids; 0 is never one.
var lineages atomic.Uint64

// New returns an empty overlay in a lineage of its own. agEdges is |E(AG)|
// of the bipartite graph the overlay was compiled from; it is the
// denominator of SharingIndex.
func New(agEdges int) *Overlay {
	return &Overlay{
		writerOf: make(map[graph.NodeID]NodeRef),
		readerOf: make(map[ReaderID]NodeRef),
		agEdges:  agEdges,
		lineage:  lineages.Add(1),
	}
}

// Lineage identifies the overlay's slot numbering. Every overlay New (or
// Load) returns starts a lineage; mutating it in place, Flatten and Thaw
// carry it. No mutation reuses a slot — a removed node's slot is
// retired and an added node opens a new one — so within one line of
// descent slot i names the same node in every overlay and Topology of the
// lineage that has it. That is what lets an engine carry its per-slot state
// over to a new snapshot of the lineage it runs (exec.Engine.Rebuild).
// Two copies of one lineage restructured independently number their new
// slots independently: only one of them may be installed where the other
// ran.
func (o *Overlay) Lineage() uint64 { return o.lineage }

// AddWriter adds (or returns the existing) writer node for data-graph node v.
func (o *Overlay) AddWriter(v graph.NodeID) NodeRef {
	if ref, ok := o.writerOf[v]; ok {
		return ref
	}
	ref := o.addNode(Node{Kind: WriterNode, GID: v, Dec: Push})
	o.writerOf[v] = ref
	return ref
}

// AddReader adds (or returns the existing) reader node of query tag for
// data-graph node v. Single-query overlays use tag 0.
func (o *Overlay) AddReader(tag int32, v graph.NodeID) NodeRef {
	if ref, ok := o.readerOf[ReaderID{tag, v}]; ok {
		return ref
	}
	ref := o.addNode(Node{Kind: ReaderNode, GID: v, Tag: tag, Dec: Pull})
	o.registerReader(ref)
	return ref
}

func (o *Overlay) registerReader(ref NodeRef) {
	n := &o.nodes[ref]
	o.readerOf[ReaderID{n.Tag, n.GID}] = ref
	o.tags = max(o.tags, n.Tag+1)
}

// AddPartial adds a fresh partial aggregation node.
func (o *Overlay) AddPartial() NodeRef {
	return o.addNode(Node{Kind: PartialNode, GID: -1, Dec: Pull})
}

func (o *Overlay) addNode(n Node) NodeRef {
	o.nodes = append(o.nodes, n)
	return NodeRef(len(o.nodes) - 1)
}

// Writer returns the writer node for v, or NoNode.
func (o *Overlay) Writer(v graph.NodeID) NodeRef {
	if ref, ok := o.writerOf[v]; ok {
		return ref
	}
	return NoNode
}

// Reader returns query tag's reader node for v, or NoNode.
func (o *Overlay) Reader(tag int32, v graph.NodeID) NodeRef {
	if ref, ok := o.readerOf[ReaderID{tag, v}]; ok {
		return ref
	}
	return NoNode
}

// ReadersOf returns the reader nodes of v, one for each query tag that has
// one.
func (o *Overlay) ReadersOf(v graph.NodeID) []NodeRef {
	var refs []NodeRef
	for tag := range o.tags {
		if ref := o.Reader(tag, v); ref != NoNode {
			refs = append(refs, ref)
		}
	}
	return refs
}

// Node returns the node for ref. The pointer is valid until the overlay is
// mutated.
func (o *Overlay) Node(ref NodeRef) *Node { return &o.nodes[ref] }

// Len returns the number of node slots (including dead ones); iterate with
// Alive to skip removed nodes.
func (o *Overlay) Len() int { return len(o.nodes) }

// NumNodes returns the number of live nodes.
func (o *Overlay) NumNodes() int { return len(o.nodes) - o.numDead }

// Alive reports whether ref is a live node.
func (o *Overlay) Alive(ref NodeRef) bool {
	return ref >= 0 && int(ref) < len(o.nodes) && !o.nodes[ref].dead
}

// NumEdges returns the number of overlay edges (negative edges included, as
// in the sharing-index accounting of Figure 2(b)).
func (o *Overlay) NumEdges() int { return o.numEdges }

// AGEdges returns |E(AG)|.
func (o *Overlay) AGEdges() int { return o.agEdges }

// AddAGEdges adjusts |E(AG)| by delta. Merged overlays extended or shrunk
// online (member queries attaching and retiring) use it to keep the
// sharing-index denominator in step with the union bipartite graph the
// overlay now represents.
func (o *Overlay) AddAGEdges(delta int) {
	o.agEdges += delta
	if o.agEdges < 0 {
		o.agEdges = 0
	}
}

// SharingIndex returns 1 - |E(overlay)|/|E(AG)| (paper §3.1).
func (o *Overlay) SharingIndex() float64 { return sharingIndex(o.numEdges, o.agEdges) }

func sharingIndex(edges, agEdges int) float64 {
	if agEdges == 0 {
		return 0
	}
	return 1 - float64(edges)/float64(agEdges)
}

// AddEdge inserts the (positive or negative) edge from -> to.
func (o *Overlay) AddEdge(from, to NodeRef, negative bool) error {
	if !o.Alive(from) || !o.Alive(to) {
		return fmt.Errorf("overlay: add edge %d->%d: node missing", from, to)
	}
	if o.nodes[to].Kind == WriterNode {
		return fmt.Errorf("overlay: writer %d cannot have inputs", to)
	}
	if o.nodes[from].Kind == ReaderNode {
		return fmt.Errorf("overlay: reader %d cannot feed other nodes", from)
	}
	o.nodes[from].Out = append(o.nodes[from].Out, HalfEdge{Peer: to, Negative: negative})
	o.nodes[to].In = append(o.nodes[to].In, HalfEdge{Peer: from, Negative: negative})
	o.numEdges++
	return nil
}

// Grow makes room for writers + readers + partials more nodes, so that
// adding them grows neither the node table nor, on an overlay that has no
// writer or reader yet, the registry of either.
func (o *Overlay) Grow(writers, readers, partials int) {
	o.nodes = slices.Grow(o.nodes, writers+readers+partials)
	if len(o.writerOf) == 0 {
		o.writerOf = make(map[graph.NodeID]NodeRef, writers)
	}
	if len(o.readerOf) == 0 {
		o.readerOf = make(map[ReaderID]NodeRef, readers)
	}
}

// ReserveEdges makes room for in[ref] in-edges and out[ref] out-edges at
// every slot of an overlay that has no edges yet, so that AddEdge then fills
// the lists without growing them. The lists are carved from one arena per
// direction and each is capped at its room: a later AddEdge past it copies
// that node's list alone. in and out have one entry per slot.
func (o *Overlay) ReserveEdges(in, out []int32) {
	if len(in) != len(o.nodes) || len(out) != len(o.nodes) || o.numEdges != 0 {
		panic("overlay: ReserveEdges needs one count per slot of an overlay without edges")
	}
	var nIn, nOut int
	for i := range in {
		nIn += int(in[i])
		nOut += int(out[i])
	}
	inArena, outArena := make([]HalfEdge, nIn), make([]HalfEdge, nOut)
	nIn, nOut = 0, 0
	for i := range o.nodes {
		n := &o.nodes[i]
		n.In = inArena[nIn : nIn : nIn+int(in[i])]
		n.Out = outArena[nOut : nOut : nOut+int(out[i])]
		nIn += int(in[i])
		nOut += int(out[i])
	}
}

// HasEdge reports whether from -> to exists (with any sign).
func (o *Overlay) HasEdge(from, to NodeRef) bool {
	if !o.Alive(from) || !o.Alive(to) {
		return false
	}
	for _, e := range o.nodes[from].Out {
		if e.Peer == to {
			return true
		}
	}
	return false
}

// RemoveEdge deletes one from -> to edge (either sign).
func (o *Overlay) RemoveEdge(from, to NodeRef) error {
	if !o.Alive(from) || !o.Alive(to) {
		return fmt.Errorf("overlay: remove edge %d->%d: node missing", from, to)
	}
	if !removeHalf(&o.nodes[from].Out, to) || !removeHalf(&o.nodes[to].In, from) {
		return fmt.Errorf("overlay: edge %d->%d not found", from, to)
	}
	o.numEdges--
	return nil
}

// RerouteIn moves the in-edge (from -> at) so it becomes (from -> to),
// preserving its sign.
func (o *Overlay) RerouteIn(from, at, to NodeRef) error {
	neg, ok := edgeSign(o.nodes[at].In, from)
	if !ok {
		return fmt.Errorf("overlay: reroute: no edge %d->%d", from, at)
	}
	if err := o.RemoveEdge(from, at); err != nil {
		return err
	}
	return o.AddEdge(from, to, neg)
}

// RemoveNode deletes a node and all incident edges. Writers and readers
// remain registered (their slots die); partials simply disappear.
func (o *Overlay) RemoveNode(ref NodeRef) error {
	if !o.Alive(ref) {
		return fmt.Errorf("overlay: remove node %d: missing", ref)
	}
	n := &o.nodes[ref]
	for _, e := range n.In {
		removeHalf(&o.nodes[e.Peer].Out, ref)
		o.numEdges--
	}
	for _, e := range n.Out {
		removeHalf(&o.nodes[e.Peer].In, ref)
		o.numEdges--
	}
	n.In, n.Out = nil, nil
	n.dead = true
	o.numDead++
	switch n.Kind {
	case WriterNode:
		delete(o.writerOf, n.GID)
	case ReaderNode:
		delete(o.readerOf, ReaderID{n.Tag, n.GID})
	}
	return nil
}

// GCOrphans removes partial nodes with no outputs (nobody consumes them),
// cascading upstream. Returns the number of nodes removed.
func (o *Overlay) GCOrphans() int {
	removed := 0
	for {
		progress := false
		for ref := range o.nodes {
			n := &o.nodes[ref]
			if n.dead || n.Kind != PartialNode || len(n.Out) > 0 {
				continue
			}
			if err := o.RemoveNode(NodeRef(ref)); err == nil {
				removed++
				progress = true
			}
		}
		if !progress {
			return removed
		}
	}
}

// ForEachNode calls fn for every live node.
func (o *Overlay) ForEachNode(fn func(ref NodeRef, n *Node)) {
	for i := range o.nodes {
		if !o.nodes[i].dead {
			fn(NodeRef(i), &o.nodes[i])
		}
	}
}

// Readers returns the refs of all live reader nodes.
func (o *Overlay) Readers() []NodeRef {
	var out []NodeRef
	o.ForEachNode(func(ref NodeRef, n *Node) {
		if n.Kind == ReaderNode {
			out = append(out, ref)
		}
	})
	return out
}

// Partials returns the refs of all live partial aggregation nodes.
func (o *Overlay) Partials() []NodeRef {
	var out []NodeRef
	o.ForEachNode(func(ref NodeRef, n *Node) {
		if n.Kind == PartialNode {
			out = append(out, ref)
		}
	})
	return out
}

// TopoOrder returns the live nodes in a topological order (writers first).
// It returns an error if the overlay contains a cycle.
func (o *Overlay) TopoOrder() ([]NodeRef, error) {
	indeg := make([]int, len(o.nodes))
	var queue []NodeRef
	live := 0
	for i := range o.nodes {
		if o.nodes[i].dead {
			continue
		}
		live++
		indeg[i] = len(o.nodes[i].In)
		if indeg[i] == 0 {
			queue = append(queue, NodeRef(i))
		}
	}
	order := make([]NodeRef, 0, live)
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, u)
		for _, e := range o.nodes[u].Out {
			indeg[e.Peer]--
			if indeg[e.Peer] == 0 {
				queue = append(queue, e.Peer)
			}
		}
	}
	if len(order) != live {
		return nil, fmt.Errorf("overlay: cycle detected (%d of %d ordered)", len(order), live)
	}
	return order, nil
}

func removeHalf(s *[]HalfEdge, peer NodeRef) bool {
	hs := *s
	for i, e := range hs {
		if e.Peer == peer {
			hs[i] = hs[len(hs)-1]
			*s = hs[:len(hs)-1]
			return true
		}
	}
	return false
}

func edgeSign(s []HalfEdge, peer NodeRef) (negative, ok bool) {
	for _, e := range s {
		if e.Peer == peer {
			return e.Negative, true
		}
	}
	return false, false
}
