package construct

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// Maintainer applies incremental structural changes to an overlay (paper
// §3.3) using the IOB machinery: small input-list deltas become direct
// edges, large ones are covered through existing partial aggregates, and
// overly fragmented readers are rebuilt wholesale.
//
// The maintainer requires a duplicate-free overlay without negative edges
// (the output of VNM, VNM_A, or IOB); overlays with duplicate paths or
// negative edges must be recompiled instead.
//
// The maintainer mutates the overlay structure, so a single caller (the
// core.System, under its structural mutex) must drive it; it is not safe
// for concurrent use. Engine traffic, however, never reads the live
// overlay: after a repair the caller installs it with exec.Engine.Rebuild,
// so reads never pause while structural repairs land and writes wait for
// the install step only.
type Maintainer struct {
	b *iobBuilder
	// directCount tracks accumulated direct edges per reader; exceeding
	// directThreshold triggers a rebuild.
	directCount map[overlay.ReaderID]int
}

const (
	// directThreshold is the paper's "prespecified threshold": deltas at
	// least this large are covered via partial aggregates, smaller ones
	// become direct writer→reader edges.
	directThreshold = 4
	// maxSplitNodes bounds how many upstream aggregators may be split to
	// absorb a deletion before falling back to a full reader rebuild
	// (paper: 5).
	maxSplitNodes = 5
)

// NewMaintainer wraps an existing overlay for incremental maintenance.
func NewMaintainer(ov *overlay.Overlay) (*Maintainer, error) {
	b, err := fromOverlay(ov)
	if err != nil {
		return nil, err
	}
	return &Maintainer{b: b, directCount: make(map[overlay.ReaderID]int)}, nil
}

// Maintainable reports whether NewMaintainer accepts the overlay t was
// taken from, without building the maintainer's indexes. That overlay must
// have no negative edge, and every writer must reach every node downstream
// of it along exactly one path: then a node's writer set is the disjoint
// union of its inputs' sets, which is what the maintainer keeps.
//
// The answer costs two int32 arrays of one entry per slot. A negative edge
// is found by a scan that allocates nothing. Then each live writer's
// downstream closure is walked under a stamp of its own: a slot reached a
// second time under one stamp is reached along two paths. Last, a Kahn
// count over the CSR finds a cycle no writer reaches.
func Maintainable(t *overlay.Topology) bool {
	for i := range t.N {
		if t.Dead[i] {
			continue
		}
		for _, p := range t.InEdges(overlay.NodeRef(i)) {
			if _, neg := overlay.UnpackRef(p); neg {
				return false
			}
		}
	}
	// A slot is pushed once per stamp, and once in the Kahn count, so the
	// stack never outgrows the slot count.
	stamp, stack := make([]int32, t.N), make([]overlay.NodeRef, 0, t.N)
	for k, w := range t.Writers {
		mark := int32(k + 1)
		stack = append(stack[:0], w)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range t.OutEdges(u) {
				v, _ := overlay.UnpackRef(p)
				if stamp[v] == mark {
					return false
				}
				stamp[v] = mark
				stack = append(stack, v)
			}
		}
	}
	// Kahn: stamp now counts each live slot's unresolved inputs.
	live := 0
	stack = stack[:0]
	for i := range t.N {
		if t.Dead[i] {
			continue
		}
		live++
		stamp[i] = t.InOff[i+1] - t.InOff[i]
		if stamp[i] == 0 {
			stack = append(stack, overlay.NodeRef(i))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		live--
		for _, p := range t.OutEdges(u) {
			v, _ := overlay.UnpackRef(p)
			if stamp[v]--; stamp[v] == 0 {
				stack = append(stack, v)
			}
		}
	}
	return live == 0
}

// Overlay returns the maintained overlay.
func (m *Maintainer) Overlay() *overlay.Overlay { return m.b.ov }

// AddReaderInputs records that query tag's reader of r had its input list
// gain the writers in delta (Δ(I(r)) of §3.3) and updates the overlay. A
// reader unknown to the overlay is created.
func (m *Maintainer) AddReaderInputs(tag int32, r graph.NodeID, delta []graph.NodeID) error {
	if len(delta) == 0 {
		return nil
	}
	ref := m.b.ov.Reader(tag, r)
	if ref == overlay.NoNode {
		return m.b.addReader(tag, r, delta)
	}
	// Update the reader's I-set and reverse index.
	set := m.b.iset[ref]
	added := make(map[graph.NodeID]struct{}, len(delta))
	for _, w := range delta {
		if _, ok := set[w]; ok {
			continue // already aggregated
		}
		set[w] = struct{}{}
		added[w] = struct{}{}
		m.b.rev[w] = append(m.b.rev[w], ref)
	}
	if len(added) == 0 {
		return nil
	}
	if len(added) >= directThreshold {
		return m.b.coverInputs(ref, added)
	}
	// Small delta: direct edges in id order, counting toward the rebuild
	// threshold.
	for _, w := range sortedWriters(added) {
		if err := m.b.ov.AddEdge(m.b.addWriter(w), ref, false); err != nil {
			return err
		}
	}
	id := overlay.ReaderID{Tag: tag, Node: r}
	m.directCount[id] += len(added)
	if m.directCount[id] > directThreshold {
		m.directCount[id] = 0
		return m.rebuildReader(ref)
	}
	return nil
}

// RemoveReaderInputs records that query tag's reader of r had its input
// list lose the writers in delta. If only a few upstream aggregators are
// affected they are split in place; otherwise the reader is rebuilt from its
// new input list (§3.3, "Deletion of Edges").
func (m *Maintainer) RemoveReaderInputs(tag int32, r graph.NodeID, delta []graph.NodeID) error {
	if len(delta) == 0 {
		return nil
	}
	ref := m.b.ov.Reader(tag, r)
	if ref == overlay.NoNode {
		return fmt.Errorf("construct: reader %d/%d not in overlay", tag, r)
	}
	set := m.b.iset[ref]
	d := make(map[graph.NodeID]struct{}, len(delta))
	for _, w := range delta {
		if _, ok := set[w]; ok {
			d[w] = struct{}{}
			delete(set, w)
		}
	}
	if len(d) == 0 {
		return nil
	}
	// Pre-processing pass: count affected upstream aggregators.
	if m.countAffectedUpstream(ref, d) > maxSplitNodes {
		return m.rebuildReader(ref)
	}
	ins := append([]overlay.HalfEdge(nil), m.b.ov.Node(ref).In...)
	for _, e := range ins {
		u := e.Peer
		iu := m.b.iset[u]
		olap := overlapCount(iu, d)
		switch {
		case olap == 0:
			// Unaffected input.
		case olap == len(iu):
			// Entire input obsolete.
			if err := m.b.ov.RemoveEdge(u, ref); err != nil {
				return err
			}
		default:
			keep := make(map[graph.NodeID]struct{}, len(iu)-olap)
			for w := range iu {
				if _, gone := d[w]; !gone {
					keep[w] = struct{}{}
				}
			}
			y, err := m.b.split(u, keep)
			if err != nil {
				return err
			}
			if err := m.b.ov.RemoveEdge(u, ref); err != nil {
				return err
			}
			if err := m.b.ov.AddEdge(y, ref, false); err != nil {
				return err
			}
		}
	}
	m.b.ov.GCOrphans()
	return nil
}

// countAffectedUpstream counts the partial aggregation nodes upstream of
// ref whose I-set intersects d.
func (m *Maintainer) countAffectedUpstream(ref overlay.NodeRef, d map[graph.NodeID]struct{}) int {
	seen := map[overlay.NodeRef]bool{ref: true}
	stack := []overlay.NodeRef{ref}
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range m.b.ov.Node(v).In {
			u := e.Peer
			if seen[u] {
				continue
			}
			seen[u] = true
			if m.b.ov.Node(u).Kind == overlay.PartialNode && overlapCount(m.b.iset[u], d) > 0 {
				count++
			}
			stack = append(stack, u)
		}
	}
	return count
}

// rebuildReader detaches the reader and re-covers its current I-set.
func (m *Maintainer) rebuildReader(ref overlay.NodeRef) error {
	if err := m.b.detachReader(ref); err != nil {
		return err
	}
	set := m.b.iset[ref]
	cover := make(map[graph.NodeID]struct{}, len(set))
	for w := range set {
		cover[w] = struct{}{}
	}
	return m.b.coverInputs(ref, cover)
}

// AddNode handles addition of a data-graph node to a single-query overlay
// (§3.3): a writer node is created, its out-edges are handed to the affected
// readers via AddReaderInputs, and a reader node with the given input list
// is inserted through the IOB algorithm.
func (m *Maintainer) AddNode(v graph.NodeID, inputs []graph.NodeID, consumers []graph.NodeID) error {
	m.b.addWriter(v)
	for _, c := range consumers {
		if err := m.AddReaderInputs(0, c, []graph.NodeID{v}); err != nil {
			return err
		}
	}
	if m.b.ov.Reader(0, v) != overlay.NoNode {
		return fmt.Errorf("construct: reader %d already exists", v)
	}
	return m.b.addReader(0, v, inputs)
}

// AddWriter registers a writer node for data-graph node v (idempotent). It
// is the writer half of AddNode, split out so a merged multi-query overlay
// can register the writer once and then add one tagged reader per member
// query.
func (m *Maintainer) AddWriter(v graph.NodeID) {
	m.b.addWriter(v)
}

// AddReader inserts query tag's reader of r, which must not already exist,
// with the given input list through the IOB algorithm, covering the inputs
// with existing partial aggregates where profitable. An empty input list
// still creates the (empty-aggregate) reader, unlike AddReaderInputs. This
// is the online family-extension primitive: attaching a query to an
// existing merged overlay adds its readers one by one without recompiling
// the shared structure.
func (m *Maintainer) AddReader(tag int32, r graph.NodeID, inputs []graph.NodeID) error {
	if m.b.ov.Reader(tag, r) != overlay.NoNode {
		return fmt.Errorf("construct: reader %d/%d already exists", tag, r)
	}
	if err := m.b.addReader(tag, r, inputs); err != nil {
		return err
	}
	// The union bipartite graph gained this reader's input list; keep the
	// sharing-index denominator in step.
	m.b.ov.AddAGEdges(len(inputs))
	return nil
}

// RemoveReader removes query tag's reader of r and garbage-collects any
// partial aggregates nobody else consumes, leaving the writer role of the
// underlying data-graph node untouched. A missing reader is a no-op. This
// is the online family-retirement primitive.
func (m *Maintainer) RemoveReader(tag int32, r graph.NodeID) error {
	rref := m.b.ov.Reader(tag, r)
	if rref == overlay.NoNode {
		return nil
	}
	inputs := len(m.b.iset[rref])
	if err := m.removeReader(rref); err != nil {
		return err
	}
	m.b.ov.GCOrphans()
	m.b.ov.AddAGEdges(-inputs)
	return nil
}

// removeReader deletes reader slot ref and its maintenance state. Its
// reverse-index entries go stale; scans skip dead refs.
func (m *Maintainer) removeReader(ref overlay.NodeRef) error {
	n := m.b.ov.Node(ref)
	id := overlay.ReaderID{Tag: n.Tag, Node: n.GID}
	if err := m.b.ov.RemoveNode(ref); err != nil {
		return err
	}
	delete(m.b.iset, ref)
	delete(m.directCount, id)
	return nil
}

// RemoveNode removes both roles of a data-graph node from the overlay — its
// writer and every query tag's reader of it — and repairs the indexes
// (§3.3). Aggregates upstream of the removed writer shrink accordingly.
func (m *Maintainer) RemoveNode(v graph.NodeID) error {
	if wref := m.b.ov.Writer(v); wref != overlay.NoNode {
		// Every node that aggregated v loses it from its I-set.
		for _, ref := range m.b.rev[v] {
			if m.b.ov.Alive(ref) && ref != wref {
				delete(m.b.iset[ref], v)
			}
		}
		delete(m.b.rev, v)
		if err := m.b.ov.RemoveNode(wref); err != nil {
			return err
		}
		delete(m.b.iset, wref)
	}
	for _, rref := range m.b.ov.ReadersOf(v) {
		if err := m.removeReader(rref); err != nil {
			return err
		}
	}
	m.b.ov.GCOrphans()
	return nil
}
