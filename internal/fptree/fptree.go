// Package fptree implements the FP-Tree construction and biclique mining
// used by the VNM family of overlay construction algorithms (paper §3.2.1),
// together with the negative-edge extension of VNM_N (§3.2.3) and the
// mined-edge-reuse extension of VNM_D (§3.2.4).
//
// Terminology follows the paper: the "transactions" are readers, the
// "items" are writers (or, in later VNM iterations, previously created
// virtual/partial aggregation nodes). A root-to-node path P with support
// S(P) corresponds to a biclique between the path's items and the readers
// in S(P).
//
// Layout. A Tree is flat data that one caller resets and refills for every
// mining round of every reader group: nodes live in one slice arena (index
// links for parent / first child / next sibling, index 0 is the root and
// doubles as "none"), a node's three support sets are bitsets over the
// group-local reader index carved from one []uint64 arena, and everything
// Insert and MineBest need besides — the reader's sorted sequence, its item
// classes, the breadth-first queue, the candidate list, the mined biclique —
// is scratch owned by the tree. A steady-state Reset / Insert / MineBest
// cycle allocates nothing.
//
// Determinism. A tree is a pure function of the rank and of the Insert
// calls in order; nothing depends on map iteration order:
//
//   - a node's children are kept, and visited, in item-rank order;
//   - a node's creation index is its arena index;
//   - the negative-edge insertion lists its candidate paths in breadth-first
//     order and sorts them by benefit (higher first), then by matched items
//     (more first), with slices.SortFunc. Candidates equal on both keep the
//     order that sort leaves them in. It is Go's pattern-defeating quicksort,
//     which draws no random numbers, so the order is a function of the list
//     — but one the standard library defines, not this package. That is
//     deliberate: the map-based kernel this one replaced sorted the same
//     list with sort.Slice, the same algorithm, and the overlays it built
//     are pinned (construct's TestOverlayGolden). Breaking ties by creation
//     index instead would be a rule one can state, and builds different
//     overlays (3691 instead of 3718 edges on the benchmark's web graph);
//   - MineBest returns the highest-benefit path, the oldest last node
//     winning ties.
package fptree

import (
	"math/bits"
	"slices"
)

// Item identifies a writer or virtual node. Items are small non-negative
// integers, dense enough to index an array with: the rank passed to Reset
// has one entry per item.
type Item = int32

// Options configure the tree variant.
type Options struct {
	// K1 is the maximum number of paths a reader is inserted along in the
	// negative-edge variant (paper's k1). K1 <= 1 gives single-path
	// insertion. K1 has no effect unless K2 > 0.
	K1 int
	// K2 is the maximum number of negative edges allowed when adding a
	// reader along a path (paper's k2, set to 5 in their experiments).
	// K2 == 0 disables negative edges (plain VNM / VNM_A / VNM_D).
	K2 int
}

// node is one FP-tree node: an item, its links, its depth and the size of
// its combined support. The support sets themselves are in Tree.sets.
type node struct {
	item    Item
	parent  int32
	child   int32 // first child in item-rank order; 0 = none
	sibling int32 // next sibling in item-rank order; 0 = none
	depth   int32
	support int32 // |pos| + |neg| + |mined|
}

// The three support sets of a node, in the order they are laid out in
// Tree.sets: pos is S (readers whose input list contains the item), neg is
// S' (readers added through here via a negative edge), mined is S_mined
// (readers whose edge to the item was consumed by an earlier biclique —
// VNM_D reuse). For one reader the class of an item is the same on every
// path, so a reader is in at most one set of a node.
const (
	setPos = iota
	setNeg
	setMined
	numSets
)

// Tree is an FP-tree over one group of readers. The zero value is not
// usable; call New, then Reset before the first Insert.
type Tree struct {
	opts  Options
	rank  []int32 // item -> position in the global insertion order
	nodes []node  // arena; nodes[0] is the root
	words int     // uint64 words per support set
	sets  []uint64
	// anyNegMined records whether any reader sits in a neg or mined set
	// since the last Reset; plain VNM trees never do, and MineBest then
	// has no ancestor supports to intersect.
	anyNegMined bool

	// Per-Insert item classes, epoch-stamped so that starting a new Insert
	// is one increment: class[it] == epoch<<2|setX says the reader being
	// inserted has it in set X; anything else means "not in its lists".
	// onPath[it] == epoch marks the items of the path being extended.
	class  []uint32
	onPath []uint32
	epoch  uint32

	seq   []uint64 // rank<<32 | item, sorted
	queue []bfsState
	cands []candidate

	// MineBest's result lives here until the next Reset.
	union      []uint64
	path       []int32
	outItems   []Item
	outReaders []Support
	outNotes   []Item
}

// bfsState is one entry of insertNegative's breadth-first walk.
type bfsState struct {
	n             int32
	matched, negs int32
}

// candidate is a path the reader could join: its last node, how many of
// the reader's items it matches, and the benefit of joining.
type candidate struct {
	n       int32
	matched int32
	benefit int
}

// compareCandidates orders candidates by benefit, then by matched items,
// higher first; see the package comment for what happens to ties.
func compareCandidates(a, b candidate) int {
	if a.benefit != b.benefit {
		return b.benefit - a.benefit
	}
	return int(b.matched - a.matched)
}

// New returns a tree of the given variant.
func New(opts Options) *Tree {
	return &Tree{opts: opts}
}

// Reset empties the tree for a new group of readers, numbered 0..readers-1.
// rank fixes the global item insertion order (smaller rank first); it must
// hold a distinct rank for every item later inserted and stay unchanged
// until the next Reset. Bicliques returned earlier become invalid.
func (t *Tree) Reset(rank []int32, readers int) {
	t.rank = rank
	if len(t.class) < len(rank) {
		n := max(len(rank), 2*len(t.class))
		t.class = append(t.class, make([]uint32, n-len(t.class))...)
		t.onPath = append(t.onPath, make([]uint32, n-len(t.onPath))...)
	}
	t.words = max(1, (readers+63)/64)
	t.nodes = append(t.nodes[:0], node{})
	t.sets = t.sets[:0]
	t.growSets()
	t.anyNegMined = false
}

// Grow makes room in the node and set arenas for n more nodes. Inserting
// readers whose lists hold n items in all creates at most n nodes, so a
// caller that knows the lists of the group it is about to insert can size
// the arenas once instead of letting them grow node by node. Call it after
// Reset.
func (t *Tree) Grow(n int) {
	t.nodes = slices.Grow(t.nodes, n)
	t.sets = slices.Grow(t.sets, n*numSets*t.words)
}

// growSets appends the (empty) support sets of the node just created.
func (t *Tree) growSets() {
	n := len(t.sets)
	t.sets = slices.Grow(t.sets, numSets*t.words)[:n+numSets*t.words]
	clear(t.sets[n:])
}

// set returns support set which of node n.
func (t *Tree) set(n int32, which int) []uint64 {
	base := (int(n)*numSets + which) * t.words
	return t.sets[base : base+t.words]
}

// has reports whether reader r is in support set which of node n.
func (t *Tree) has(n int32, which, r int) bool {
	return t.set(n, which)[r>>6]&(1<<(r&63)) != 0
}

// Size returns the number of tree nodes (excluding the root).
func (t *Tree) Size() int { return len(t.nodes) - 1 }

// Insert adds a reader with the given positive items (its current input
// list) and mined items (inputs already covered by earlier bicliques, only
// relevant for the VNM_D variant; may be nil). Items need not be sorted. A
// reader is inserted at most once between two Resets.
func (t *Tree) Insert(reader int, items []Item, mined []Item) {
	if t.epoch == 1<<30-1 { // epoch<<2 is about to wrap: forget every stamp
		clear(t.class)
		clear(t.onPath)
		t.epoch = 0
	}
	t.epoch++
	seq := t.seq[:0]
	for _, it := range mined {
		t.class[it] = t.epoch<<2 | setMined
		seq = append(seq, uint64(t.rank[it])<<32|uint64(uint32(it)))
	}
	for _, it := range items { // after mined: an item in both lists is positive
		t.class[it] = t.epoch<<2 | setPos
		seq = append(seq, uint64(t.rank[it])<<32|uint64(uint32(it)))
	}
	slices.Sort(seq)
	t.seq = seq

	if t.opts.K2 > 0 && t.insertNegative(reader) {
		return
	}
	t.extend(0, reader, -1)
}

// classOf returns the set the reader being inserted falls into at a node
// carrying item it.
func (t *Tree) classOf(it Item) int {
	if c := t.class[it]; c>>2 == t.epoch {
		return int(c & 3)
	}
	return setNeg
}

// tag records reader in node n's support set for the node's item.
func (t *Tree) tag(n int32, reader int) {
	which := t.classOf(t.nodes[n].item)
	w, bit := &t.set(n, which)[reader>>6], uint64(1)<<(reader&63)
	if *w&bit == 0 {
		*w |= bit
		t.nodes[n].support++
		if which != setPos {
			t.anyNegMined = true
		}
	}
}

// extend is the standard FP-tree insertion below node from: walk down the
// trie in item order, creating children as needed, adding the reader to
// each visited node's support. Items marked onPath and items ranked at or
// before floor are left out.
func (t *Tree) extend(from int32, reader int, floor int32) {
	cur := from
	for _, key := range t.seq {
		it, rk := Item(uint32(key)), int32(key>>32)
		if rk <= floor || t.onPath[it] == t.epoch {
			continue
		}
		cur = t.childFor(cur, it, rk)
		t.tag(cur, reader)
	}
}

// childFor returns cur's child carrying item it (of rank rk), creating it at
// its place in the rank-ordered sibling list when there is none.
func (t *Tree) childFor(cur int32, it Item, rk int32) int32 {
	prev, c := int32(0), t.nodes[cur].child
	for c != 0 && t.rank[t.nodes[c].item] < rk {
		prev, c = c, t.nodes[c].sibling
	}
	if c != 0 && t.nodes[c].item == it {
		return c
	}
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{item: it, parent: cur, sibling: c, depth: t.nodes[cur].depth + 1})
	t.growSets()
	if prev == 0 {
		t.nodes[cur].child = id
	} else {
		t.nodes[prev].sibling = id
	}
	return id
}

// insertNegative implements the VNM_N insertion (§3.2.3): breadth-first
// exploration of the existing tree to find up to K1 paths with the highest
// benefit of adding the reader (allowing at most K2 negative edges per
// path); the reader is recorded along those paths, and the remaining items
// extend the best path as a new branch. It reports false, having done
// nothing, when no existing path matches any of the reader's items.
func (t *Tree) insertNegative(reader int) bool {
	// BFS over the tree. A path may only use items; matching is positional
	// — the walk consumes tree nodes in depth order, and an item matches
	// when it belongs to the reader's positive set. Mined items count as
	// matches for path purposes but are tagged separately.
	k2 := int32(t.opts.K2)
	cands := t.cands[:0]
	queue := append(t.queue[:0], bfsState{})
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for c := t.nodes[s.n].child; c != 0; c = t.nodes[c].sibling {
			child := &t.nodes[c]
			ns := bfsState{c, s.matched, s.negs}
			if t.classOf(child.item) == setNeg {
				ns.negs++
				if ns.negs > k2 {
					continue
				}
			} else {
				ns.matched++
			}
			if ns.matched > 0 {
				depth, support := int(child.depth), int(child.support)+1
				b := depth*support - depth - support - int(ns.negs)
				cands = append(cands, candidate{c, ns.matched, b})
			}
			queue = append(queue, ns)
		}
	}
	t.queue, t.cands = queue, cands
	if len(cands) == 0 {
		return false
	}
	slices.SortFunc(cands, compareCandidates)
	k1 := min(max(t.opts.K1, 1), len(cands))
	// Record the reader along the chosen paths.
	for i := 0; i < k1; i++ {
		for n := cands[i].n; n != 0; n = t.nodes[n].parent {
			t.tag(n, reader)
		}
	}
	// Extend the best path with the reader's leftover items. Items ranked
	// before the path tail cannot extend the branch in sort order; they
	// stay uncovered in this tree.
	best := cands[0].n
	for n := best; n != 0; n = t.nodes[n].parent {
		t.onPath[t.nodes[n].item] = t.epoch
	}
	t.extend(best, reader, t.rank[t.nodes[best].item])
	return true
}

// popcountAnd returns |a ∩ b|.
func popcountAnd(a, b []uint64) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}
