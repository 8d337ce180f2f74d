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
	// closure[w] is writer w's packed push-region application list.
	closure [][]int32
	// pushReaders[w] lists, deduplicated, the push-annotated reader slots
	// whose standing-query results change when w's content stream advances:
	// those w's closure reaches with a non-zero net sign. A VNM_N negative
	// edge can carry w's delta to a reader outside w's neighbourhood and
	// cancel it there; that reader's value never moves, so it is not on the
	// list. The subscription fan-out walks this list; it is empty for writers
	// whose push region changes no reader, and nil for non-writer slots.
	pushReaders [][]readerTouch
	// readable marks the live push nodes a read loads directly: push readers,
	// and push nodes with a pull consumer (a pull kernel's inputs). Under a
	// SelectAggregate exactly these publish their best (engineState.best).
	readable []bool
}

// feedsPull reports whether ref is a live push node with a pull consumer —
// an input a pull kernel loads: a readable node other than a reader. In an
// engine with pull memos exactly these keep a version (engineState.ver).
func (p *plan) feedsPull(ref overlay.NodeRef) bool {
	return p.readable[ref] && p.top.Kind[ref] != overlay.ReaderNode
}

// readerTouch is one (overlay slot, data-graph node, query tag) triple on a
// writer's notification list. tag is the owning query's view, so
// subscription fan-out can route each touch to exactly the subscribers of
// that query.
type readerTouch struct {
	ref overlay.NodeRef
	gid graph.NodeID
	tag int32
}

// compilePlan flattens the overlay and precomputes per-writer push closures.
func compilePlan(ov *overlay.Overlay) *plan {
	top := ov.Flatten()
	p := &plan{
		top:         top,
		closure:     make([][]int32, top.N),
		pushReaders: make([][]readerTouch, top.N),
		readable:    make([]bool, top.N),
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
	// stack is reused across writers; entries are packed (ref, inverted).
	var stack []int32
	for _, w := range top.Writers {
		var apps []int32
		stack = append(stack[:0], overlay.PackRef(w, false))
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
		p.closure[w] = apps
	}
	// Second pass: derive each writer's reader-touch list from its closure:
	// sum the signed visits per reader, then keep, in first-visit order and
	// once each, the readers whose sum is not zero. Built after every
	// closure so the touch slices do not interleave with the hot closure
	// arrays in the heap (the propagation loop is cache-sensitive).
	net := map[overlay.NodeRef]int{}
	for _, w := range top.Writers {
		clear(net)
		for _, pe := range p.closure[w] {
			ref, neg := overlay.UnpackRef(pe)
			switch {
			case top.Kind[ref] != overlay.ReaderNode:
			case neg:
				net[ref]--
			default:
				net[ref]++
			}
		}
		var touches []readerTouch
		for _, pe := range p.closure[w] {
			if ref, _ := overlay.UnpackRef(pe); net[ref] != 0 {
				net[ref] = 0
				touches = append(touches, readerTouch{
					ref: ref, gid: top.GID[ref], tag: top.Tag[ref]})
			}
		}
		p.pushReaders[w] = touches
	}
	return p
}

// writer returns the writer slot for data-graph node v, or NoNode.
func (p *plan) writer(v graph.NodeID) overlay.NodeRef { return p.top.Writer(v) }

// reader returns query tag's reader slot for data-graph node v, or NoNode.
func (p *plan) reader(tag int32, v graph.NodeID) overlay.NodeRef { return p.top.Reader(tag, v) }
