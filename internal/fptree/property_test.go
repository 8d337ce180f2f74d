package fptree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLists derives reader input lists from a seed.
func randomLists(seed int64, nr, nw uint8) map[int][]Item {
	rng := rand.New(rand.NewSource(seed))
	readers := 2 + int(nr%20)
	writers := 2 + int(nw%15)
	lists := make(map[int][]Item, readers)
	for r := 0; r < readers; r++ {
		seen := map[Item]bool{}
		var in []Item
		for i := 0; i < rng.Intn(writers)+1; i++ {
			w := Item(rng.Intn(writers))
			if !seen[w] {
				seen[w] = true
				in = append(in, w)
			}
		}
		lists[r] = in
	}
	return lists
}

// idRankTree returns an empty tree that ranks randomLists' items by id.
func idRankTree(opts Options, lists map[int][]Item) *Tree {
	rank := make([]int32, 2+15)
	for i := range rank {
		rank[i] = int32(i)
	}
	tr := New(opts)
	tr.Reset(rank, len(lists))
	return tr
}

// Property (soundness, plain trees): every mined biclique's supporters
// actually contain all path items in their input lists, and the declared
// benefit matches the paper's formula.
func TestQuickPlainMiningSound(t *testing.T) {
	f := func(seed int64, nr, nw uint8) bool {
		lists := randomLists(seed, nr, nw)
		tr := idRankTree(Options{}, lists)
		for r, l := range lists {
			tr.Insert(r, l, nil)
		}
		b, ok := tr.MineBest()
		if !ok {
			return true
		}
		if len(b.Items) < 2 || len(b.Readers) < 2 {
			return false
		}
		for _, s := range b.Readers {
			if len(s.Neg) != 0 || len(s.Mined) != 0 {
				return false
			}
			have := map[Item]bool{}
			for _, it := range lists[s.Reader] {
				have[it] = true
			}
			for _, it := range b.Items {
				if !have[it] {
					return false
				}
			}
		}
		want := len(b.Items)*len(b.Readers) - len(b.Items) - len(b.Readers)
		return b.Benefit == want && b.Benefit > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property (soundness, negative trees): positive items are in the list,
// negative items are not, and each supporter uses at most k2 negatives.
func TestQuickNegativeMiningSound(t *testing.T) {
	const k2 = 2
	f := func(seed int64, nr, nw uint8) bool {
		lists := randomLists(seed, nr, nw)
		tr := idRankTree(Options{K1: 2, K2: k2}, lists)
		for r, l := range lists {
			tr.Insert(r, l, nil)
		}
		b, ok := tr.MineBest()
		if !ok {
			return true
		}
		for _, s := range b.Readers {
			if len(s.Neg) > k2 {
				return false
			}
			have := map[Item]bool{}
			for _, it := range lists[s.Reader] {
				have[it] = true
			}
			negSet := map[Item]bool{}
			for _, it := range s.Neg {
				if have[it] {
					return false // negative edge for an item the reader has
				}
				negSet[it] = true
			}
			for _, it := range b.Items {
				if !negSet[it] && !have[it] {
					return false // positive contribution the reader lacks
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: tree size is bounded by the total number of inserted items.
func TestQuickTreeSizeBound(t *testing.T) {
	f := func(seed int64, nr, nw uint8) bool {
		lists := randomLists(seed, nr, nw)
		tr := idRankTree(Options{}, lists)
		total := 0
		for r, l := range lists {
			tr.Insert(r, l, nil)
			total += len(l)
		}
		return tr.Size() <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
