package fptree

import (
	"sort"
	"testing"
)

// Figure 3 uses writers {d,c,e,f,a,b} in that sort order and readers
// ar={d,c,e,f}, br={d,e,f}, er={d,c,a,b}, cr={d,c,e,f}.
const (
	dw Item = 0
	cw Item = 1
	ew Item = 2
	fw Item = 3
	aw Item = 4
	bw Item = 5
)

// figRank ranks the six Figure 3 items in id order.
var figRank = []int32{0, 1, 2, 3, 4, 5}

// newFigTree returns an empty tree over the Figure 3 items for readers 0..3.
func newFigTree(opts Options) *Tree {
	tr := New(opts)
	tr.Reset(figRank, 4)
	return tr
}

// childWith returns n's child carrying item it, or 0.
func (t *Tree) childWith(n int32, it Item) int32 {
	for c := t.nodes[n].child; c != 0; c = t.nodes[c].sibling {
		if t.nodes[c].item == it {
			return c
		}
	}
	return 0
}

var figReaders = map[int][]Item{
	0: {dw, cw, ew, fw}, // ar
	1: {dw, ew, fw},     // br
	2: {dw, cw, aw, bw}, // er
	3: {dw, cw, ew, fw}, // cr
}

func TestPlainInsertMatchesFigure3a(t *testing.T) {
	tr := newFigTree(Options{})
	for _, r := range []int{0, 1, 2} {
		tr.Insert(r, figReaders[r], nil)
	}
	// Figure 3(a): nodes d,c,e,f (ar chain), e,f (br branch), a,b (er
	// branch) = 8 nodes.
	if tr.Size() != 8 {
		t.Fatalf("tree size = %d, want 8", tr.Size())
	}
	// d's support = {ar,br,er}; c's = {ar,er}.
	d := tr.childWith(0, dw)
	if d == 0 || tr.nodes[d].support != 3 || !tr.has(d, setPos, 0) || !tr.has(d, setPos, 1) || !tr.has(d, setPos, 2) {
		t.Fatalf("support(d) wrong: %+v", tr.nodes[d])
	}
	c := tr.childWith(d, cw)
	if c == 0 || tr.nodes[c].support != 2 {
		t.Fatalf("support(c) wrong: %+v", tr.nodes[c])
	}
	if !tr.has(c, setPos, 0) {
		t.Fatal("ar missing from support(c)")
	}
	if !tr.has(c, setPos, 2) {
		t.Fatal("er missing from support(c)")
	}
}

func TestPlainMineFindsBiclique(t *testing.T) {
	tr := newFigTree(Options{})
	for r := 0; r <= 3; r++ {
		tr.Insert(r, figReaders[r], nil)
	}
	b, ok := tr.MineBest()
	if !ok {
		t.Fatal("no biclique found")
	}
	// Best path: d,c,e,f with support {ar,cr}: benefit 4*2-4-2 = 2.
	if len(b.Items) != 4 || len(b.Readers) != 2 {
		t.Fatalf("biclique = %dx%d, want 4x2 (%v)", len(b.Items), len(b.Readers), b)
	}
	if b.Benefit != 2 {
		t.Fatalf("benefit = %d, want 2", b.Benefit)
	}
	wantItems := []Item{dw, cw, ew, fw}
	for i, it := range b.Items {
		if it != wantItems[i] {
			t.Fatalf("items = %v, want %v", b.Items, wantItems)
		}
	}
	for _, s := range b.Readers {
		if len(s.Neg) != 0 || len(s.Mined) != 0 {
			t.Fatalf("plain mining produced negative/mined support: %+v", s)
		}
	}
	if saved := b.NumEdgesSaved(); saved != 2 {
		t.Fatalf("edges saved = %d, want 2", saved)
	}
}

func TestPlainMineNoPositiveBenefit(t *testing.T) {
	tr := newFigTree(Options{})
	tr.Insert(0, []Item{dw, cw}, nil)
	tr.Insert(1, []Item{ew, fw}, nil)
	// Best possible: 2x1 paths, benefit <= 0.
	if b, ok := tr.MineBest(); ok {
		t.Fatalf("expected no biclique, got %+v", b)
	}
}

// With negative edges enabled (k2=1, k1=2) the tree can cover br and er
// along the main chain, exposing a 3x3 quasi-biclique — the Figure 3(b)
// scenario where the basic version only finds 2x2.
func TestNegativeInsertFindsLargerBiclique(t *testing.T) {
	basic := newFigTree(Options{})
	negtr := newFigTree(Options{K1: 2, K2: 1})
	for _, r := range []int{0, 1, 2} { // ar, br, er only (as in Figure 3)
		basic.Insert(r, figReaders[r], nil)
		negtr.Insert(r, figReaders[r], nil)
	}
	bb, okb := basic.MineBest()
	if okb && bb.Benefit > 0 {
		// Basic: best is d,c × {ar,er} = benefit 0 → not returned, or
		// some other non-positive. Any positive-benefit biclique here
		// would be unexpected.
		t.Fatalf("basic tree found positive biclique %+v, expected none", bb)
	}
	nb, okn := negtr.MineBest()
	if !okn {
		t.Fatal("negative tree found no biclique")
	}
	if len(nb.Items) < 3 || len(nb.Readers) < 3 {
		t.Fatalf("negative biclique = %dx%d, want >= 3x3: %+v",
			len(nb.Items), len(nb.Readers), nb)
	}
	// At least one supporter must use a negative edge.
	negCount := 0
	for _, s := range nb.Readers {
		negCount += len(s.Neg)
	}
	if negCount == 0 {
		t.Fatalf("expected negative edges in %+v", nb)
	}
	if nb.Benefit <= 0 {
		t.Fatalf("benefit = %d, want > 0", nb.Benefit)
	}
}

func TestNegativeRespectsK2(t *testing.T) {
	tr := newFigTree(Options{K1: 1, K2: 1})
	tr.Insert(0, []Item{dw, cw, ew, fw}, nil)
	// Reader 1 shares only d: adding along the full chain needs 3
	// negatives, above k2=1, so it must not be tagged at f.
	tr.Insert(1, []Item{dw, aw}, nil)
	b, ok := tr.MineBest()
	if !ok {
		return // fine: nothing positive
	}
	for _, s := range b.Readers {
		if len(s.Neg) > 1 {
			t.Fatalf("reader %d has %d negative edges, k2=1: %+v", s.Reader, len(s.Neg), b)
		}
	}
}

func TestMinedReuseSupport(t *testing.T) {
	// Reader 0's edges to d,c were consumed by an earlier biclique
	// (VNM_D): it is inserted with positives {e,f} and mined {d,c}.
	tr := newFigTree(Options{})
	tr.Insert(0, []Item{ew, fw}, []Item{dw, cw})
	tr.Insert(1, []Item{dw, cw, ew, fw}, nil)
	tr.Insert(2, []Item{dw, cw, ew, fw}, nil)
	b, ok := tr.MineBest()
	if !ok {
		t.Fatal("no biclique")
	}
	if len(b.Items) != 4 || len(b.Readers) != 3 {
		t.Fatalf("biclique = %dx%d, want 4x3", len(b.Items), len(b.Readers))
	}
	// Benefit: 4*3 - 4 - 3 - 2 mined = 3.
	if b.Benefit != 3 {
		t.Fatalf("benefit = %d, want 3", b.Benefit)
	}
	var r0 *Support
	for i := range b.Readers {
		if b.Readers[i].Reader == 0 {
			r0 = &b.Readers[i]
		}
	}
	if r0 == nil {
		t.Fatal("reader 0 not in support")
	}
	gotMined := append([]Item(nil), r0.Mined...)
	sort.Slice(gotMined, func(i, j int) bool { return gotMined[i] < gotMined[j] })
	if len(gotMined) != 2 || gotMined[0] != dw || gotMined[1] != cw {
		t.Fatalf("mined items for reader 0 = %v, want [d c]", gotMined)
	}
}

func TestNumEdgesSavedWithNegatives(t *testing.T) {
	b := Biclique{
		Items: []Item{1, 2, 3},
		Readers: []Support{
			{Reader: 0},                 // 3 removed, 1 added: +2
			{Reader: 1, Neg: []Item{2}}, // 2 removed, 2 added: 0
		},
	}
	// Total: +2 + 0 - 3 (virtual in-edges) = -1.
	if got := b.NumEdgesSaved(); got != -1 {
		t.Fatalf("saved = %d, want -1", got)
	}
}

func TestInsertUnsortedItems(t *testing.T) {
	tr := newFigTree(Options{})
	tr.Insert(0, []Item{fw, dw, ew, cw}, nil) // shuffled
	tr.Insert(1, []Item{cw, dw, fw, ew}, nil)
	b, ok := tr.MineBest()
	if !ok {
		t.Fatal("no biclique")
	}
	if len(b.Items) != 4 || len(b.Readers) != 2 {
		t.Fatalf("biclique = %dx%d, want 4x2", len(b.Items), len(b.Readers))
	}
	// Items must come out in rank order.
	for i := 1; i < len(b.Items); i++ {
		if figRank[b.Items[i-1]] >= figRank[b.Items[i]] {
			t.Fatalf("items not in rank order: %v", b.Items)
		}
	}
}

func TestEmptyTreeMinesNothing(t *testing.T) {
	tr := newFigTree(Options{})
	if _, ok := tr.MineBest(); ok {
		t.Fatal("empty tree mined a biclique")
	}
	tr.Insert(0, nil, nil)
	if tr.Size() != 0 {
		t.Fatal("inserting empty list should not grow tree")
	}
}

func TestNegativeInsertEmptyTreeFallsBack(t *testing.T) {
	tr := newFigTree(Options{K1: 2, K2: 2})
	tr.Insert(0, []Item{dw, cw}, nil)
	if tr.Size() != 2 {
		t.Fatalf("fallback plain insert size = %d, want 2", tr.Size())
	}
}
