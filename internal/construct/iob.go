package construct

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/shingle"
)

// iobBuilder carries the state of the Incremental Overlay Building
// algorithm (paper §3.2.5): the overlay under construction, the forward
// index (a node's aggregated writer set I(ovl), cached per node), and the
// reverse index (writer → overlay nodes aggregating it).
type iobBuilder struct {
	ov *overlay.Overlay
	// iset caches I(ref) as a set of writers. Writers map to themselves;
	// partial and reader nodes map to the union of their inputs' sets.
	iset map[overlay.NodeRef]map[graph.NodeID]struct{}
	// rev maps each writer to the overlay nodes whose I() contains it
	// (the paper's reverse index). Entries may be stale (dead nodes) and
	// are skipped during scans.
	rev map[graph.NodeID][]overlay.NodeRef
}

func newIOBBuilder(agEdges int) *iobBuilder {
	return &iobBuilder{
		ov:   overlay.New(agEdges),
		iset: make(map[overlay.NodeRef]map[graph.NodeID]struct{}),
		rev:  make(map[graph.NodeID][]overlay.NodeRef),
	}
}

var errNegativeEdges = errors.New("construct: incremental maintenance does not support negative edges")

// fromOverlay builds indexes for an existing overlay, enabling incremental
// maintenance (§3.3) on overlays produced by any construction algorithm:
// one writer set per node and the reverse index. NewMaintainer is its one
// caller, reached when a system first thaws an overlay that Maintainable
// accepted; whether an overlay has a maintainer is Maintainable's question,
// which needs no index. Overlays with negative edges are not supported by
// the maintainer; the in-edges are scanned for one before anything is
// allocated, so learning that a VNM_N overlay has no maintainer costs a
// walk, not an index.
func fromOverlay(ov *overlay.Overlay) (*iobBuilder, error) {
	for ref := overlay.NodeRef(0); int(ref) < ov.Len(); ref++ {
		if !ov.Alive(ref) {
			continue
		}
		for _, e := range ov.Node(ref).In {
			if e.Negative {
				return nil, errNegativeEdges
			}
		}
	}
	b := &iobBuilder{
		ov:   ov,
		iset: make(map[overlay.NodeRef]map[graph.NodeID]struct{}),
		rev:  make(map[graph.NodeID][]overlay.NodeRef),
	}
	order, err := ov.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, ref := range order {
		n := ov.Node(ref)
		set := make(map[graph.NodeID]struct{})
		if n.Kind == overlay.WriterNode {
			set[n.GID] = struct{}{}
		} else {
			for _, e := range n.In {
				for w := range b.iset[e.Peer] {
					if _, dup := set[w]; dup {
						return nil, fmt.Errorf("construct: incremental maintenance requires single-path overlays (writer %d reaches node %d twice)", w, ref)
					}
					set[w] = struct{}{}
				}
			}
		}
		b.iset[ref] = set
		for w := range set {
			b.rev[w] = append(b.rev[w], ref)
		}
	}
	return b, nil
}

// registerNode records a node's I-set in both indexes.
func (b *iobBuilder) registerNode(ref overlay.NodeRef, set map[graph.NodeID]struct{}) {
	b.iset[ref] = set
	for w := range set {
		b.rev[w] = append(b.rev[w], ref)
	}
}

// addWriter ensures writer w exists with its singleton I-set.
func (b *iobBuilder) addWriter(w graph.NodeID) overlay.NodeRef {
	ref := b.ov.Writer(w)
	if ref != overlay.NoNode {
		return ref
	}
	ref = b.ov.AddWriter(w)
	b.registerNode(ref, map[graph.NodeID]struct{}{w: {}})
	return ref
}

// bestCover scans the reverse index to find the live overlay node through
// which the uncovered set A is most profitably covered ("one single scan of
// the input list", §3.2.5). It returns the chosen node and the subset of A
// it will cover, or NoNode when no candidate saves edges.
//
// Only clean covers are considered: the covered subset is the union of the
// candidate's direct inputs whose I-sets lie fully inside A, so the split
// is a pure reroute (writer inputs are singletons and always split
// cleanly). The net overlay-edge savings are then exact:
//
//	exact reuse of a partial (I(v) ⊆ A): |I(v)| - 1
//	promoting a reader's inputs:         |I(v)| - 2 (extra p→reader edge)
//	splitting off S ⊂ I(v):              |S| - 2    (extra y→v edge)
//
// Candidates with non-positive savings are rejected; greedily taking them
// only deepens the overlay without shrinking it.
func (b *iobBuilder) bestCover(a map[graph.NodeID]struct{}, exclude overlay.NodeRef) (overlay.NodeRef, map[graph.NodeID]struct{}) {
	counts := make(map[overlay.NodeRef]int)
	for w := range a {
		for _, ref := range b.rev[w] {
			if ref != exclude && b.ov.Alive(ref) {
				counts[ref]++
			}
		}
	}
	// Reverse-index entries can be stale after deletions, so the counts
	// are upper bounds on the true overlap. Rank candidates by count and
	// evaluate the best few exactly.
	type cand struct {
		ref overlay.NodeRef
		c   int
	}
	cands := make([]cand, 0, len(counts))
	for ref, c := range counts {
		if c >= 2 && b.ov.Node(ref).Kind != overlay.WriterNode {
			cands = append(cands, cand{ref, c})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].c != cands[j].c {
			return cands[i].c > cands[j].c
		}
		// Among equals prefer the smaller I-set (more likely an exact
		// cover), then the smaller ref for determinism.
		li, lj := len(b.iset[cands[i].ref]), len(b.iset[cands[j].ref])
		if li != lj {
			return li < lj
		}
		return cands[i].ref < cands[j].ref
	})
	const verify = 8
	best, bestBenefit := overlay.NoNode, 0
	var bestSet map[graph.NodeID]struct{}
	for i, cd := range cands {
		if i >= verify && bestBenefit >= 1 {
			break
		}
		if cd.c-1 <= bestBenefit {
			break // counts are sorted upper bounds on benefit+1
		}
		set := b.cleanCoverSet(cd.ref, a)
		benefit := len(set) - 2
		if len(set) == len(b.iset[cd.ref]) && b.ov.Node(cd.ref).Kind == overlay.PartialNode {
			benefit = len(set) - 1
		}
		if benefit > bestBenefit {
			best, bestBenefit, bestSet = cd.ref, benefit, set
		}
	}
	if bestBenefit < 1 {
		return overlay.NoNode, nil
	}
	return best, bestSet
}

// cleanCoverSet returns the union of I-sets of v's direct inputs that lie
// entirely inside a. For writers it returns the singleton if covered.
func (b *iobBuilder) cleanCoverSet(v overlay.NodeRef, a map[graph.NodeID]struct{}) map[graph.NodeID]struct{} {
	out := make(map[graph.NodeID]struct{})
	n := b.ov.Node(v)
	if n.Kind == overlay.WriterNode {
		if _, ok := a[n.GID]; ok {
			out[n.GID] = struct{}{}
		}
		return out
	}
	for _, e := range n.In {
		iu := b.iset[e.Peer]
		if len(iu) == 0 || overlapCount(iu, a) != len(iu) {
			continue
		}
		for w := range iu {
			out[w] = struct{}{}
		}
	}
	return out
}

// promote hoists a reader's inputs into a partial aggregation node so they
// can be shared (readers must not feed other nodes — §3.2.5 footnote). If
// the reader already has a single partial input covering its whole set,
// that node is returned instead.
func (b *iobBuilder) promote(r overlay.NodeRef) (overlay.NodeRef, error) {
	n := b.ov.Node(r)
	if n.Kind != overlay.ReaderNode {
		return r, nil
	}
	if len(n.In) == 1 && !n.In[0].Negative {
		only := n.In[0].Peer
		if b.ov.Node(only).Kind == overlay.PartialNode &&
			len(b.iset[only]) == len(b.iset[r]) {
			return only, nil
		}
	}
	p := b.ov.AddPartial()
	ins := append([]overlay.HalfEdge(nil), n.In...)
	for _, e := range ins {
		if err := b.ov.RerouteIn(e.Peer, r, p); err != nil {
			return overlay.NoNode, err
		}
	}
	if err := b.ov.AddEdge(p, r, false); err != nil {
		return overlay.NoNode, err
	}
	set := make(map[graph.NodeID]struct{}, len(b.iset[r]))
	for w := range b.iset[r] {
		set[w] = struct{}{}
	}
	b.registerNode(p, set)
	return p, nil
}

// split restructures node v so that a new (or existing) node y with
// I(y) = s becomes one of v's inputs, and returns y. Precondition:
// s ⊊ I(v), s non-empty. Other consumers of v are unaffected (v keeps its
// identity and full I-set). Partial-overlap inputs are split recursively
// and bypassed, exactly the "restructure the overlay" step of §3.2.5.
func (b *iobBuilder) split(v overlay.NodeRef, s map[graph.NodeID]struct{}) (overlay.NodeRef, error) {
	n := b.ov.Node(v)
	if n.Kind == overlay.WriterNode {
		return overlay.NoNode, fmt.Errorf("construct: cannot split writer %d", v)
	}
	var inside []overlay.NodeRef
	ins := append([]overlay.HalfEdge(nil), n.In...)
	for _, e := range ins {
		u := e.Peer
		iu := b.iset[u]
		olap := overlapCount(iu, s)
		switch {
		case olap == 0:
			// Entirely outside: keep as a direct input of v.
		case olap == len(iu):
			inside = append(inside, u)
		default:
			// Partial overlap: split u, then bypass it — v takes
			// u's pieces directly so the inside piece can be
			// grouped under y without double-counting.
			yu, err := b.split(u, intersect(iu, s))
			if err != nil {
				return overlay.NoNode, err
			}
			if err := b.ov.RemoveEdge(u, v); err != nil {
				return overlay.NoNode, err
			}
			for _, ue := range b.ov.Node(u).In {
				if err := b.ov.AddEdge(ue.Peer, v, false); err != nil {
					return overlay.NoNode, err
				}
			}
			inside = append(inside, yu)
		}
	}
	if len(inside) == 1 {
		return inside[0], nil
	}
	y := b.ov.AddPartial()
	for _, u := range inside {
		if err := b.ov.RerouteIn(u, v, y); err != nil {
			return overlay.NoNode, err
		}
	}
	if err := b.ov.AddEdge(y, v, false); err != nil {
		return overlay.NoNode, err
	}
	set := make(map[graph.NodeID]struct{}, len(s))
	for w := range s {
		set[w] = struct{}{}
	}
	b.registerNode(y, set)
	return y, nil
}

// addReader inserts reader r with input list inputs using the greedy
// set-cover heuristic (§3.2.5), reusing and restructuring existing partial
// aggregates.
func (b *iobBuilder) addReader(tag int32, rNode graph.NodeID, inputs []graph.NodeID) error {
	r := b.ov.AddReader(tag, rNode)
	rset := make(map[graph.NodeID]struct{}, len(inputs))
	for _, w := range inputs {
		rset[w] = struct{}{}
	}
	// Re-insertions (improvement iterations) must not duplicate reverse
	// index entries; the reader's input list is unchanged across passes.
	if _, seen := b.iset[r]; !seen {
		b.registerNode(r, rset)
	}
	if err := b.coverInputs(r, rset); err != nil {
		return err
	}
	return nil
}

// coverInputs adds edges to dst so that it aggregates exactly the writers
// in a (which must be uncovered at dst so far).
func (b *iobBuilder) coverInputs(dst overlay.NodeRef, a map[graph.NodeID]struct{}) error {
	remaining := make(map[graph.NodeID]struct{}, len(a))
	for w := range a {
		remaining[w] = struct{}{}
	}
	for len(remaining) > 0 {
		v, common := b.bestCover(remaining, dst)
		if v == overlay.NoNode {
			// Cover the rest with direct writer edges, in id order so equal
			// inputs always give one in-list order.
			for _, w := range sortedWriters(remaining) {
				if err := b.ov.AddEdge(b.addWriter(w), dst, false); err != nil {
					return err
				}
			}
			return nil
		}
		bSet := b.iset[v]
		var src overlay.NodeRef
		if len(common) == len(bSet) {
			// B ⊆ A: use v's aggregate wholesale (promoting readers).
			p, err := b.promote(v)
			if err != nil {
				return err
			}
			src = p
		} else {
			y, err := b.split(v, common)
			if err != nil {
				return err
			}
			src = y
		}
		if err := b.ov.AddEdge(src, dst, false); err != nil {
			return err
		}
		for w := range common {
			delete(remaining, w)
		}
	}
	return nil
}

// detachReader removes all of a reader's in-edges and garbage-collects any
// partial aggregators that no longer serve anyone. The reader node itself
// stays registered. Index entries for collected nodes are dropped lazily.
func (b *iobBuilder) detachReader(r overlay.NodeRef) error {
	n := b.ov.Node(r)
	ins := append([]overlay.HalfEdge(nil), n.In...)
	for _, e := range ins {
		if err := b.ov.RemoveEdge(e.Peer, r); err != nil {
			return err
		}
	}
	b.ov.GCOrphans()
	return nil
}

// buildIOB runs the full IOB construction: readers are added one at a time
// in shingle order; subsequent iterations revisit each reader and
// re-insert it against the current overlay ("local restructuring", §3.2.5).
func buildIOB(ag *bipartite.AG, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	b := newIOBBuilder(ag.NumEdges())
	for _, w := range ag.AllNodes {
		b.addWriter(w)
	}
	order := shingle.Order(ag, cfg.Shingles)
	var history []float64
	var times []time.Duration
	for iter := 0; iter < cfg.Iterations; iter++ {
		start := time.Now()
		for _, i := range order {
			r := ag.Readers[i]
			if iter > 0 {
				ref := b.ov.Reader(r.Tag, r.Node)
				if ref == overlay.NoNode {
					return nil, fmt.Errorf("construct: reader %d lost", r.Node)
				}
				if err := b.detachReader(ref); err != nil {
					return nil, err
				}
			}
			if err := b.addReader(r.Tag, r.Node, r.Inputs); err != nil {
				return nil, err
			}
		}
		si := b.ov.SharingIndex()
		history = append(history, si)
		times = append(times, time.Since(start))
		if iter > 0 && si <= history[iter-1]+1e-9 {
			break // converged
		}
	}
	if _, err := b.ov.TopoOrder(); err != nil {
		return nil, err
	}
	return &Result{Overlay: b.ov, SharingIndexHistory: history, IterTimes: times}, nil
}

func overlapCount(a, b map[graph.NodeID]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	c := 0
	for w := range a {
		if _, ok := b[w]; ok {
			c++
		}
	}
	return c
}

func intersect(a, b map[graph.NodeID]struct{}) map[graph.NodeID]struct{} {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make(map[graph.NodeID]struct{})
	for w := range a {
		if _, ok := b[w]; ok {
			out[w] = struct{}{}
		}
	}
	return out
}

// sortedWriters returns a set's members in ascending id order.
func sortedWriters(s map[graph.NodeID]struct{}) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s))
	for w := range s {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
