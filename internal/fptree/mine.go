package fptree

import "math/bits"

// Support describes one reader's participation in a mined biclique.
type Support struct {
	Reader int
	// Neg lists the path items the reader does not actually have in its
	// input list; they must be cancelled with negative edges (VNM_N).
	Neg []Item
	// Mined lists the path items whose edges were already consumed by an
	// earlier biclique; for duplicate-insensitive aggregates they are
	// simply served again via the new biclique (VNM_D).
	Mined []Item
}

// Biclique is a mined quasi-biclique: the path items (writer side) and the
// supporting readers, in ascending reader order, with their per-reader
// negative/mined annotations.
type Biclique struct {
	Items   []Item
	Readers []Support
	// Benefit is the paper's mining objective for the chosen path:
	// L*|S| - L - |S| - Σ|S'| - Σ|S_mined|.
	Benefit int
}

// NumEdgesSaved returns the exact number of AG edges removed minus overlay
// edges added if this biclique is applied: each reader loses its positive
// path edges and gains one edge from the virtual node plus one negative
// edge per Neg item; the virtual node costs len(Items) input edges.
func (b Biclique) NumEdgesSaved() int {
	saved := 0
	for _, s := range b.Readers {
		positive := len(b.Items) - len(s.Neg) - len(s.Mined)
		saved += positive       // removed reader in-edges
		saved -= 1 + len(s.Neg) // added virtual->reader and negative edges
	}
	saved -= len(b.Items) // added writer->virtual edges
	return saved
}

// MineBest returns the root-to-node path with the maximum benefit
// (paper §3.2.1). ok is false when no path has positive benefit. The
// biclique's slices are the tree's own: they may be edited in place and are
// overwritten by the next MineBest or Reset.
func (t *Tree) MineBest() (Biclique, bool) {
	if cap(t.union) < t.words {
		t.union = make([]uint64, t.words)
	}
	union := t.union[:t.words]
	bestNode, bestBenefit := int32(0), 0
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		depth, support := int(n.depth), int(n.support)
		if support < 2 || depth < 2 {
			continue
		}
		// Without negative and mined support the benefit is this bound.
		b := depth*support - depth - support
		if b <= bestBenefit {
			continue
		}
		if t.anyNegMined {
			// Readers that reach n passed through every ancestor, landing
			// in exactly one of each ancestor's support sets. Count the
			// negative and mined contributions along the path for the
			// readers in n's support.
			t.supportOf(int32(i), union)
			for y := int32(i); y != 0; y = t.nodes[y].parent {
				b -= popcountAnd(t.set(y, setNeg), union) + popcountAnd(t.set(y, setMined), union)
			}
		}
		if b > bestBenefit {
			bestBenefit = b
			bestNode = int32(i)
		}
	}
	if bestNode == 0 {
		return Biclique{}, false
	}
	return t.extract(bestNode, bestBenefit), true
}

// supportOf writes node n's combined support into union.
func (t *Tree) supportOf(n int32, union []uint64) {
	pos, neg, mined := t.set(n, setPos), t.set(n, setNeg), t.set(n, setMined)
	for w := range union {
		union[w] = pos[w] | neg[w] | mined[w]
	}
}

// extract materializes the biclique for the path ending at n.
func (t *Tree) extract(n int32, benefit int) Biclique {
	depth := int(t.nodes[n].depth)
	path := append(t.path[:0], make([]int32, depth)...)
	items := append(t.outItems[:0], make([]Item, depth)...)
	for y := n; y != 0; y = t.nodes[y].parent { // leaf..root, stored root..leaf
		d := t.nodes[y].depth - 1
		path[d], items[d] = y, t.nodes[y].item
	}
	t.path, t.outItems = path, items

	// Support = readers present at the path's last node. Their Neg and
	// Mined items are carved out of one buffer, sized up front so that the
	// carved slices stay put.
	union := t.union[:t.words]
	t.supportOf(n, union)
	readers := t.outReaders[:0]
	notes := t.outNotes[:0]
	if need := depth * int(t.nodes[n].support); cap(notes) < need {
		notes = make([]Item, 0, need)
	}
	for w, word := range union {
		for ; word != 0; word &= word - 1 {
			r := w<<6 | bits.TrailingZeros64(word)
			s := Support{Reader: r}
			if t.anyNegMined {
				s.Neg, notes = t.pathItemsIn(setNeg, r, notes)
				s.Mined, notes = t.pathItemsIn(setMined, r, notes)
			}
			readers = append(readers, s)
		}
	}
	t.outReaders, t.outNotes = readers, notes
	return Biclique{Items: items, Readers: readers, Benefit: benefit}
}

// pathItemsIn appends to notes the items of t.path whose support set which
// holds reader r, and returns them (nil when there are none) with the grown
// buffer.
func (t *Tree) pathItemsIn(which, r int, notes []Item) ([]Item, []Item) {
	start := len(notes)
	for _, y := range t.path {
		if t.has(y, which, r) {
			notes = append(notes, t.nodes[y].item)
		}
	}
	if len(notes) == start {
		return nil, notes
	}
	return notes[start:len(notes):len(notes)], notes
}
