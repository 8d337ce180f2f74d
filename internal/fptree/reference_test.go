package fptree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refTree is the map-based FP-tree the flat kernel replaced (four Go maps
// per node, three more per Insert), kept test-only as the differential
// reference. The one change from the original is the child order of the
// package comment: insertNegative visits children in item-rank order, where
// the original ranged over the children map. The candidate sort is the
// original's sort.Slice on (benefit, matched), which permutes a list exactly
// as the kernel's slices.SortFunc does.
type refTree struct {
	root  *refNode
	rank  func(Item) int
	opts  Options
	nodes []*refNode // creation order
}

type refNode struct {
	item     Item
	parent   *refNode
	children map[Item]*refNode
	depth    int
	pos      map[int]struct{}
	neg      map[int]struct{}
	mined    map[int]struct{}
}

func (t *refTree) newNode(item Item, parent *refNode, depth int) *refNode {
	return &refNode{
		item:     item,
		parent:   parent,
		children: make(map[Item]*refNode),
		depth:    depth,
		pos:      make(map[int]struct{}),
		neg:      make(map[int]struct{}),
		mined:    make(map[int]struct{}),
	}
}

func newRefTree(rank func(Item) int, opts Options) *refTree {
	t := &refTree{rank: rank, opts: opts}
	t.root = t.newNode(-1, nil, 0)
	return t
}

func (t *refTree) Insert(reader int, items []Item, mined []Item) {
	minedSet := make(map[Item]struct{}, len(mined))
	for _, m := range mined {
		minedSet[m] = struct{}{}
	}
	seq := make([]Item, 0, len(items)+len(mined))
	seq = append(seq, items...)
	seq = append(seq, mined...)
	sort.Slice(seq, func(i, j int) bool {
		ri, rj := t.rank(seq[i]), t.rank(seq[j])
		if ri != rj {
			return ri < rj
		}
		return seq[i] < seq[j]
	})
	posSet := make(map[Item]struct{}, len(items))
	for _, it := range items {
		posSet[it] = struct{}{}
	}

	if t.opts.K2 > 0 {
		t.insertNegative(reader, seq, posSet, minedSet)
		return
	}
	t.insertPlain(reader, seq, posSet, minedSet)
}

func (t *refTree) child(cur *refNode, it Item) *refNode {
	child, ok := cur.children[it]
	if !ok {
		child = t.newNode(it, cur, cur.depth+1)
		cur.children[it] = child
		t.nodes = append(t.nodes, child)
	}
	return child
}

func (t *refTree) insertPlain(reader int, seq []Item, pos, mined map[Item]struct{}) {
	cur := t.root
	for _, it := range seq {
		cur = t.child(cur, it)
		t.tag(cur, reader, pos, mined)
	}
}

func (t *refTree) tag(n *refNode, reader int, pos, mined map[Item]struct{}) {
	if _, ok := pos[n.item]; ok {
		n.pos[reader] = struct{}{}
	} else if _, ok := mined[n.item]; ok {
		n.mined[reader] = struct{}{}
	} else {
		n.neg[reader] = struct{}{}
	}
}

// childrenInRankOrder is the deterministic replacement for ranging over
// n.children.
func (t *refTree) childrenInRankOrder(n *refNode) []*refNode {
	out := make([]*refNode, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return t.rank(out[i].item) < t.rank(out[j].item) })
	return out
}

func (t *refTree) insertNegative(reader int, seq []Item, pos, mined map[Item]struct{}) {
	type cand struct {
		n       *refNode
		matched int
		negs    int
		benefit int
	}
	var cands []cand
	type state struct {
		n       *refNode
		matched int
		negs    int
	}
	queue := []state{{t.root, 0, 0}}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, child := range t.childrenInRankOrder(s.n) {
			ns := state{child, s.matched, s.negs}
			if _, ok := pos[child.item]; ok {
				ns.matched++
			} else if _, ok := mined[child.item]; ok {
				ns.matched++
			} else {
				ns.negs++
				if ns.negs > t.opts.K2 {
					continue
				}
			}
			if ns.matched > 0 {
				support := len(child.pos) + len(child.neg) + len(child.mined) + 1
				b := child.depth*support - child.depth - support - ns.negs
				cands = append(cands, cand{child, ns.matched, ns.negs, b})
			}
			queue = append(queue, ns)
		}
	}
	if len(cands) == 0 {
		t.insertPlain(reader, seq, pos, mined)
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].benefit != cands[j].benefit {
			return cands[i].benefit > cands[j].benefit
		}
		return cands[i].matched > cands[j].matched
	})
	k1 := t.opts.K1
	if k1 < 1 {
		k1 = 1
	}
	if k1 > len(cands) {
		k1 = len(cands)
	}
	for i := 0; i < k1; i++ {
		for n := cands[i].n; n != t.root; n = n.parent {
			t.tag(n, reader, pos, mined)
		}
	}
	best := cands[0].n
	onPath := make(map[Item]struct{})
	for n := best; n != t.root; n = n.parent {
		onPath[n.item] = struct{}{}
	}
	cur := best
	for _, it := range seq {
		if _, ok := onPath[it]; ok {
			continue
		}
		if t.rank(it) <= t.rank(best.item) {
			continue
		}
		cur = t.child(cur, it)
		t.tag(cur, reader, pos, mined)
	}
}

func (t *refTree) MineBest() (Biclique, bool) {
	var bestNode *refNode
	bestBenefit := 0
	for _, n := range t.nodes {
		support := len(n.pos) + len(n.neg) + len(n.mined)
		if support < 2 || n.depth < 2 {
			continue
		}
		negs, mineds := 0, 0
		for y := n; y != t.root; y = y.parent {
			if y == n {
				negs += len(n.neg)
				mineds += len(n.mined)
				continue
			}
			negs += refCountMembers(y.neg, n)
			mineds += refCountMembers(y.mined, n)
		}
		b := n.depth*support - n.depth - support - negs - mineds
		if b > bestBenefit {
			bestBenefit = b
			bestNode = n
		}
	}
	if bestNode == nil {
		return Biclique{}, false
	}
	return t.extract(bestNode, bestBenefit), true
}

func refCountMembers(ancestorSet map[int]struct{}, n *refNode) int {
	c := 0
	for _, set := range []map[int]struct{}{n.pos, n.neg, n.mined} {
		for r := range set {
			if _, ok := ancestorSet[r]; ok {
				c++
			}
		}
	}
	return c
}

func (t *refTree) extract(n *refNode, benefit int) Biclique {
	var path []*refNode
	for y := n; y != t.root; y = y.parent {
		path = append(path, y)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	items := make([]Item, len(path))
	for i, y := range path {
		items[i] = y.item
	}
	var readers []int
	for _, set := range []map[int]struct{}{n.pos, n.neg, n.mined} {
		for r := range set {
			readers = append(readers, r)
		}
	}
	sort.Ints(readers)
	sup := make([]Support, 0, len(readers))
	for _, r := range readers {
		s := Support{Reader: r}
		for _, y := range path {
			if _, ok := y.neg[r]; ok {
				s.Neg = append(s.Neg, y.item)
			} else if _, ok := y.mined[r]; ok {
				s.Mined = append(s.Mined, y.item)
			}
		}
		sup = append(sup, s)
	}
	return Biclique{Items: items, Readers: sup, Benefit: benefit}
}

// TestFPTreeMatchesReference drives the flat tree and the map-based
// reference through the same mining rounds — insert every reader, mine the
// best biclique, rewrite the supporters' lists the way VNM does, rebuild —
// and requires the same biclique every round: items, readers, per-reader
// Neg / Mined, benefit.
func TestFPTreeMatchesReference(t *testing.T) {
	variants := []struct {
		opts  Options
		reuse bool
	}{
		{Options{}, false},
		{Options{}, true},
		{Options{K1: 2, K2: 5}, false},
		{Options{K1: 2, K2: 5}, true},
	}
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	mined := 0
	for _, v := range variants {
		for seed := 0; seed < seeds; seed++ {
			name := fmt.Sprintf("K1=%d,K2=%d,reuse=%t,seed=%d", v.opts.K1, v.opts.K2, v.reuse, seed)
			mined += diffAgainstReference(t, name, v.opts, v.reuse, int64(seed))
		}
	}
	if mined < 4*seeds {
		t.Fatalf("only %d bicliques mined over %d runs: the differential is not exercising the miner", mined, 4*seeds)
	}
}

func diffAgainstReference(t *testing.T, name string, opts Options, reuse bool, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	readers := 2 + rng.Intn(140) // crosses the one-word bitset boundary
	writers := 4 + rng.Intn(40)
	// A few templates give the transactions common prefixes to mine.
	templates := make([][]Item, 1+rng.Intn(4))
	for i := range templates {
		for w := 0; w < writers; w++ {
			if rng.Intn(3) == 0 {
				templates[i] = append(templates[i], Item(w))
			}
		}
	}
	lists := make([][]Item, readers)
	minedLists := make([][]Item, readers)
	for r := range lists {
		have := map[Item]bool{}
		for _, it := range templates[rng.Intn(len(templates))] {
			if rng.Intn(5) != 0 {
				have[it] = true
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			have[Item(rng.Intn(writers))] = true
		}
		for it := range have {
			lists[r] = append(lists[r], it)
		}
		rng.Shuffle(len(lists[r]), func(i, j int) { lists[r][i], lists[r][j] = lists[r][j], lists[r][i] })
	}
	// A random rank over the writers; items created by mining rank after
	// everything, by id, as in construct's runIteration.
	rank := make([]int32, writers)
	for i, p := range rng.Perm(writers) {
		rank[i] = int32(p)
	}
	rankFn := func(it Item) int { return int(rank[it]) }

	flat := New(opts)
	rounds := 0
	for ; rounds < 12; rounds++ {
		ref := newRefTree(rankFn, opts)
		flat.Reset(rank, readers)
		for r := range lists {
			if len(lists[r]) < 2 {
				continue
			}
			ref.Insert(r, lists[r], minedLists[r])
			flat.Insert(r, lists[r], minedLists[r])
		}
		if got, want := flat.Size(), len(ref.nodes); got != want {
			t.Fatalf("%s round %d: tree size %d, reference %d", name, rounds, got, want)
		}
		want, wantOK := ref.MineBest()
		got, gotOK := flat.MineBest()
		if gotOK != wantOK {
			t.Fatalf("%s round %d: mined=%t, reference mined=%t", name, rounds, gotOK, wantOK)
		}
		if !wantOK {
			break
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round %d:\n got %+v\nwant %+v", name, rounds, got, want)
		}
		// Apply it: supporters trade their positive path items for the new
		// virtual item; with reuse the traded items become mined items.
		z := Item(len(rank))
		rank = append(rank, int32(len(rank)))
		onPath := map[Item]bool{}
		for _, it := range want.Items {
			onPath[it] = true
		}
		for _, s := range want.Readers {
			skip := map[Item]bool{}
			for _, it := range s.Neg {
				skip[it] = true
			}
			for _, it := range s.Mined {
				skip[it] = true
			}
			kept := lists[s.Reader][:0]
			for _, it := range lists[s.Reader] {
				if onPath[it] && !skip[it] {
					if reuse {
						minedLists[s.Reader] = append(minedLists[s.Reader], it)
					}
					continue
				}
				kept = append(kept, it)
			}
			lists[s.Reader] = append(kept, z)
		}
	}
	return rounds
}
