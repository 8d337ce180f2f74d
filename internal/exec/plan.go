package exec

import (
	"repro/internal/graph"
	"repro/internal/overlay"
)

// plan is the compiled, immutable form of the overlay the engine executes
// against. It is built once per (topology, decisions) generation — at New
// and at every Rebuild — and replaced wholesale when either changes, so
// the hot paths never consult the mutable overlay structure.
//
// Two representations coexist:
//
//   - top: the overlay flattened into CSR arrays (kinds, decisions, in- and
//     out-edges packed as ref<<1|sign). Pull evaluation walks top.InEdges.
//   - closure: for every writer, the full push-region application list — the
//     exact multiset of (node, sign) visits the old breadth-first propagation
//     performed, precomputed once. A write then applies its delta with a
//     single flat loop: no stack, no queue, no per-write traversal state.
//
// Closure entries replicate traversal multiplicity on purpose: overlays with
// duplicate writer→reader paths (legal for duplicate-insensitive aggregates)
// must apply a delta once per traversed edge, exactly as the BFS did.
//
// A plan is immutable after compilePlan returns and is shared by every
// goroutine holding the snapshot that owns it; no synchronization is needed
// to read it.
type plan struct {
	top *overlay.Topology
	// closure[closureOff[w]:closureOff[w+1]] is writer w's packed
	// push-region application list (closureOf): CSR like top.Out, one offset
	// per slot and one exact-length array for every writer.
	closureOff []int32
	closure    []int32
	// pushReaders[pushReadersOff[w]:pushReadersOff[w+1]] (pushReadersOf)
	// lists, deduplicated, the push-annotated reader slots whose
	// standing-query results change when w's content stream advances: those
	// w's closure reaches with a non-zero net sign. A VNM_N negative edge can
	// carry w's delta to a reader outside w's neighbourhood and cancel it
	// there; that reader's value never moves, so it is not on the list. The
	// subscription fan-out walks this list; it is empty for writers whose
	// push region changes no reader, and for non-writer slots.
	pushReadersOff []int32
	pushReaders    []readerTouch
	// readable marks the live push nodes a read loads directly: push readers,
	// and push nodes with a pull consumer (a pull kernel's inputs). Under a
	// SelectAggregate exactly these publish their best (engineState.best).
	readable []bool
}

// closureOf returns writer w's packed push-region application list.
func (p *plan) closureOf(w overlay.NodeRef) []int32 {
	return p.closure[p.closureOff[w]:p.closureOff[w+1]]
}

// pushReadersOf returns writer w's reader-touch list.
func (p *plan) pushReadersOf(w overlay.NodeRef) []readerTouch {
	return p.pushReaders[p.pushReadersOff[w]:p.pushReadersOff[w+1]]
}

// feedsPull reports whether ref is a live push node with a pull consumer —
// an input a pull kernel loads: a readable node other than a reader. In an
// engine with pull memos exactly these keep a version (engineState.ver).
func (p *plan) feedsPull(ref overlay.NodeRef) bool {
	return p.readable[ref] && p.top.Kind[ref] != overlay.ReaderNode
}

// readerTouch is one (overlay slot, query tag) pair on a writer's
// notification list. tag is the owning query's view, so subscription fan-out
// can route each touch to exactly the subscribers of that query; the
// delivery reads the slot's data-graph node from top.GID.
type readerTouch struct {
	ref overlay.NodeRef
	tag int32
}

// compilePlan flattens the overlay and precomputes per-writer push closures.
func compilePlan(ov *overlay.Overlay) *plan {
	top := ov.Flatten()
	p := &plan{
		top:            top,
		closureOff:     make([]int32, top.N+1),
		pushReadersOff: make([]int32, top.N+1),
		readable:       make([]bool, top.N),
	}
	for i := range top.N {
		if top.Dead[i] || top.Dec[i] != overlay.Push {
			continue
		}
		p.readable[i] = top.Kind[i] == overlay.ReaderNode
		for _, pe := range top.OutEdges(overlay.NodeRef(i)) {
			if dst, _ := overlay.UnpackRef(pe); top.Dec[dst] != overlay.Push {
				p.readable[i] = true
			}
		}
	}
	// Closures are appended slot by slot into one scratch array, copied out
	// at its exact length; stack is reused across writers, its entries
	// packed (ref, inverted).
	var apps, stack []int32
	for i := range top.N {
		if top.Kind[i] == overlay.WriterNode && !top.Dead[i] {
			stack = append(stack[:0], overlay.PackRef(overlay.NodeRef(i), false))
		}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ref, inv := overlay.UnpackRef(cur)
			for _, pe := range top.OutEdges(ref) {
				dst, neg := overlay.UnpackRef(pe)
				if top.Dec[dst] != overlay.Push || top.Dead[dst] {
					continue
				}
				packed := overlay.PackRef(dst, inv != neg)
				apps = append(apps, packed)
				stack = append(stack, packed)
			}
		}
		p.closureOff[i+1] = int32(len(apps))
	}
	p.closure = append(make([]int32, 0, len(apps)), apps...)
	// Second pass: derive each writer's reader-touch list from its closure:
	// sum the signed visits per reader, then keep, in first-visit order and
	// once each, the readers whose sum is not zero. The keeping loop zeroes
	// every sum it finds, so net is all zero again for the next writer.
	net := make([]int32, top.N)
	var touches []readerTouch
	for i := range top.N {
		for _, pe := range p.closureOf(overlay.NodeRef(i)) {
			ref, neg := overlay.UnpackRef(pe)
			switch {
			case top.Kind[ref] != overlay.ReaderNode:
			case neg:
				net[ref]--
			default:
				net[ref]++
			}
		}
		for _, pe := range p.closureOf(overlay.NodeRef(i)) {
			if ref, _ := overlay.UnpackRef(pe); net[ref] != 0 {
				net[ref] = 0
				touches = append(touches, readerTouch{ref: ref, tag: top.Tag[ref]})
			}
		}
		p.pushReadersOff[i+1] = int32(len(touches))
	}
	p.pushReaders = append(make([]readerTouch, 0, len(touches)), touches...)
	return p
}

// writer returns the writer slot for data-graph node v, or NoNode.
func (p *plan) writer(v graph.NodeID) overlay.NodeRef { return p.top.Writer(v) }

// reader returns query tag's reader slot for data-graph node v, or NoNode.
func (p *plan) reader(tag int32, v graph.NodeID) overlay.NodeRef { return p.top.Reader(tag, v) }
