package construct

import (
	"slices"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/fptree"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/shingle"
)

// vnmState is the working representation shared by the VNM variants: the
// current (partially compressed) bipartite graph. Consumers are readers
// (indices 0..R-1) and virtual nodes (indices >= R) created by mining;
// items are writers (their data-graph ids) and virtual nodes (ids >=
// itemBase). Item ids are dense — writers below itemBase, the k-th virtual
// node at itemBase+k — so everything keyed by item is a plain array.
type vnmState struct {
	ag       *bipartite.AG
	cfg      Config
	reuse    bool        // VNM_D: re-serve previously mined edges
	itemBase fptree.Item // first virtual item id: one past the largest writer id

	lists [][]fptree.Item // consumer -> current positive input list
	neg   [][]fptree.Item // consumer -> final negative-edge sources
	mined [][]fptree.Item // consumer -> items consumed by earlier bicliques

	history []float64
	benefit map[int]int // reader-set size -> total benefit (current iter)

	// The mining kernel and this iteration's item order. rank is total over
	// the items that exist: 0..seen-1 for those computeRank saw in a list,
	// seen+id for the rest (including the virtual nodes created since).
	tree *fptree.Tree
	rank []int32
	seen int32

	// Scratch, reused across iterations and bicliques.
	count    []uint64 // computeRank: occurrences per item, then sort keys
	shingles []uint64 // shingleOrder: the consumers × Shingles matrix
	onPath   []uint32 // applyBiclique: onPath[it] == epoch marks a path item
	epoch    uint32
}

func newVNMState(ag *bipartite.AG, cfg Config, reuse bool) *vnmState {
	s := &vnmState{
		ag:      ag,
		cfg:     cfg,
		reuse:   reuse,
		lists:   make([][]fptree.Item, len(ag.Readers)),
		neg:     make([][]fptree.Item, len(ag.Readers)),
		mined:   make([][]fptree.Item, len(ag.Readers)),
		benefit: make(map[int]int),
		tree:    fptree.New(fptree.Options{K1: cfg.NegK1, K2: cfg.NegK2}),
	}
	// One backing array for every reader's list: a list only ever shrinks
	// (applyBiclique trades at least two items for one).
	arena := make([]fptree.Item, 0, ag.NumEdges())
	for i, r := range ag.Readers {
		start := len(arena)
		for _, w := range r.Inputs {
			arena = append(arena, fptree.Item(w))
			s.itemBase = max(s.itemBase, fptree.Item(w)+1)
		}
		s.lists[i] = arena[start:len(arena):len(arena)]
	}
	return s
}

// numReaders returns the count of original readers among consumers.
func (s *vnmState) numReaders() int { return len(s.ag.Readers) }

// numItems returns the size of the item id space: writers and virtual nodes.
func (s *vnmState) numItems() int { return int(s.itemBase) + len(s.lists) - s.numReaders() }

// isVirtualItem reports whether an item denotes a virtual node.
func (s *vnmState) isVirtualItem(it fptree.Item) bool { return it >= s.itemBase }

// consumerOfItem maps a virtual item id to its consumer index.
func (s *vnmState) consumerOfItem(it fptree.Item) int {
	return s.numReaders() + int(it-s.itemBase)
}

// itemOfConsumer maps a virtual consumer index to its item id.
func (s *vnmState) itemOfConsumer(ci int) fptree.Item {
	return s.itemBase + fptree.Item(ci-s.numReaders())
}

// shingleID is the id an item hashes under in the shingle ordering: virtual
// nodes are numbered from ag.MaxID(), past every reader's node id, which is
// where the id space of items began before it was made dense.
func (s *vnmState) shingleID(it fptree.Item) graph.NodeID {
	if s.isVirtualItem(it) {
		return graph.NodeID(s.ag.MaxID()) + graph.NodeID(it-s.itemBase)
	}
	return graph.NodeID(it)
}

// overlayEdges counts the edges the final overlay would have now.
func (s *vnmState) overlayEdges() int {
	n := 0
	for ci := range s.lists {
		n += len(s.lists[ci]) + len(s.neg[ci])
	}
	return n
}

// sharingIndex returns the current SI.
func (s *vnmState) sharingIndex() float64 {
	if s.ag.NumEdges() == 0 {
		return 0
	}
	return 1 - float64(s.overlayEdges())/float64(s.ag.NumEdges())
}

// computeRank fixes the global item order for this iteration: descending
// occurrence count across all current input lists (ties by id), so that
// frequent shared writers sort toward the root and readers with common
// popular inputs share tree prefixes. (The paper's §3.2.1 text says
// "increasing order", but its own Figure 3 sorts the degree-6 writer d
// first; descending order is also the standard FP-Tree convention, and
// ascending order finds essentially no bicliques on heavy-tailed graphs.)
// Items in no list (e.g. mined-only) order after everything, by id.
func (s *vnmState) computeRank() {
	n := s.numItems()
	count := append(s.count[:0], make([]uint64, n)...)
	for _, l := range s.lists {
		for _, it := range l {
			count[it]++
		}
	}
	// Compact the seen items into sort keys (count, id), the count
	// complemented for the descending order. The keys overwrite count from
	// the front, never ahead of the entry being read.
	keys := count[:0]
	for it, c := range count {
		if c == 0 {
			continue
		}
		if !s.cfg.AscendingRank {
			c = uint64(^uint32(c))
		}
		keys = append(keys, c<<32|uint64(it))
	}
	slices.Sort(keys)
	s.count = count
	s.seen = int32(len(keys))
	s.rank = slices.Grow(s.rank[:0], n)[:n]
	for it := range s.rank {
		s.rank[it] = s.seen + int32(it)
	}
	for i, k := range keys {
		s.rank[uint32(k)] = int32(i)
	}
}

// shingleOrder returns the consumers sorted by the min-hash shingles of
// their current input lists (ties by consumer index).
func (s *vnmState) shingleOrder() []int {
	m := s.cfg.Shingles
	s.shingles = slices.Grow(s.shingles[:0], len(s.lists)*m)[:len(s.lists)*m]
	for ci, l := range s.lists {
		row := s.shingles[ci*m : (ci+1)*m]
		shingle.Empty(row)
		for _, it := range l {
			shingle.Fold(row, s.shingleID(it))
		}
	}
	return shingle.OrderRows(s.shingles, m)
}

// runIteration performs one VNM iteration: shingle-order the consumers,
// chunk them, and mine each group to exhaustion (rebuilding the FP-tree
// after every applied biclique, per §3.2.1's "ideally we should ...
// reconstruct the FP-Tree"). It returns the total number of bicliques
// applied.
func (s *vnmState) runIteration(chunkSize int) int {
	overlap := 0
	if s.cfg.OverlapPct > 0 {
		overlap = chunkSize * s.cfg.OverlapPct / 100
	}
	groups := shingle.Chunk(s.shingleOrder(), chunkSize, overlap)
	// The item rank is computed once per iteration; applying bicliques
	// perturbs the degree counts slightly, but a mildly stale order does
	// not affect correctness and avoids an O(E) rescan per mined biclique.
	s.computeRank()
	applied := 0
	for _, consumers := range groups {
		applied += s.mineGroup(consumers)
	}
	return applied
}

// maxMinesPerGroup bounds the bicliques mined within one reader group per
// iteration.
const maxMinesPerGroup = 64

// adaptKeep is the mass fraction of per-size benefit VNM_A's next chunk
// size must retain (paper: 0.9; stable in [0.8, 1.0]).
const adaptKeep = 0.9

// mineGroup repeatedly builds an FP-tree over the group's consumers and
// applies the best biclique until no positive-saving biclique remains.
func (s *vnmState) mineGroup(consumers []int) int {
	applied := 0
	for round := 0; round < maxMinesPerGroup; round++ {
		// The tree numbers its readers by position in the group; it gets
		// at most one node per item inserted.
		s.tree.Reset(s.rank, len(consumers))
		items := 0
		for _, ci := range consumers {
			if len(s.lists[ci]) >= 2 {
				items += len(s.lists[ci])
				if s.reuse {
					items += len(s.mined[ci])
				}
			}
		}
		s.tree.Grow(items)
		for i, ci := range consumers {
			if len(s.lists[ci]) < 2 {
				continue
			}
			var mined []fptree.Item
			if s.reuse {
				mined = s.mined[ci]
			}
			s.tree.Insert(i, s.lists[ci], mined)
		}
		bic, ok := s.tree.MineBest()
		if !ok {
			return applied
		}
		for i := range bic.Readers {
			bic.Readers[i].Reader = consumers[bic.Readers[i].Reader]
		}
		if !s.applyBiclique(bic) {
			return applied
		}
		applied++
	}
	return applied
}

// applyBiclique materializes a mined biclique as a new virtual node,
// rewriting the supporters' input lists. It returns false (and applies
// nothing) when the biclique's exact net saving is not positive after
// filtering unprofitable supporters.
func (s *vnmState) applyBiclique(b fptree.Biclique) bool {
	L := len(b.Items)
	// Filter supporters: each must gain strictly (positives removed
	// exceed the one virtual edge plus its negative edges), negative
	// support is only allowed on original readers (virtual consumers
	// with negative edges could close a cycle through pre-existing
	// paths), and VNM_N negative edges require subtractability which the
	// caller encoded via cfg.NegK2.
	kept := b.Readers[:0]
	for _, sup := range b.Readers {
		if len(sup.Neg) > 0 && sup.Reader >= s.numReaders() {
			continue
		}
		positives := L - len(sup.Neg) - len(sup.Mined)
		if positives-1-len(sup.Neg) <= 0 {
			continue
		}
		kept = append(kept, sup)
	}
	b.Readers = kept
	if len(b.Readers) < 2 {
		return false
	}
	if b.NumEdgesSaved() <= 0 {
		return false
	}

	// Create the virtual node: it is both a consumer (aggregating the
	// path items) and an item (feeding the supporters), unseen by this
	// iteration's rank.
	ci := len(s.lists)
	s.lists = append(s.lists, slices.Clone(b.Items))
	s.neg = append(s.neg, nil)
	s.mined = append(s.mined, nil)
	z := s.itemOfConsumer(ci)
	s.rank = append(s.rank, s.seen+z)

	if len(s.onPath) < len(s.rank) {
		s.onPath = append(s.onPath, make([]uint32, max(len(s.rank), 2*len(s.onPath))-len(s.onPath))...)
	}
	s.epoch++
	for _, it := range b.Items {
		s.onPath[it] = s.epoch
	}
	for _, sup := range b.Readers {
		// Trade the supporter's path items for the virtual node. Every
		// path item in its list is a positive one: sup.Neg are the path
		// items it lacks, sup.Mined those an earlier biclique took away.
		l := s.lists[sup.Reader][:0]
		for _, it := range s.lists[sup.Reader] {
			if s.onPath[it] == s.epoch {
				if s.reuse {
					s.mined[sup.Reader] = append(s.mined[sup.Reader], it)
				}
				continue
			}
			l = append(l, it)
		}
		s.lists[sup.Reader] = append(l, z)
		s.neg[sup.Reader] = append(s.neg[sup.Reader], sup.Neg...)
	}
	s.benefit[len(b.Readers)] += b.Benefit
	return true
}

// nextChunkSize implements VNM_A's adaptation (§3.2.2): choose the smallest
// chunk size c <= cur such that the bicliques with reader-set size <= c
// carry at least adaptKeep of the total benefit observed this iteration.
func (s *vnmState) nextChunkSize(cur int) int {
	if len(s.benefit) == 0 {
		return cur
	}
	sizes := make([]int, 0, len(s.benefit))
	total := 0
	for sz, b := range s.benefit {
		sizes = append(sizes, sz)
		total += b
	}
	if total <= 0 {
		return cur
	}
	sort.Ints(sizes)
	acc := 0
	for _, sz := range sizes {
		acc += s.benefit[sz]
		if float64(acc) >= adaptKeep*float64(total) {
			if sz < 2 {
				sz = 2
			}
			if sz > cur {
				return cur
			}
			return sz
		}
	}
	return cur
}

// assemble converts the final consumer lists into an overlay graph: writers
// in AG order, then one reader per original consumer and one partial per
// virtual one, then each consumer's positive and negative in-edges in list
// order. Every item is resolved to its slot once — a writer no AG node
// names gets its slot where the edge loop first meets it — and every
// node's edge lists are reserved at their final length before the edges
// go in.
func (s *vnmState) assemble() (*overlay.Overlay, error) {
	ov := overlay.New(s.ag.NumEdges())
	ov.Grow(len(s.ag.AllNodes), s.numReaders(), len(s.lists)-s.numReaders())
	writerOf := make([]overlay.NodeRef, s.itemBase)
	for i := range writerOf {
		writerOf[i] = overlay.NoNode
	}
	for _, w := range s.ag.AllNodes {
		ref := ov.AddWriter(w)
		if w >= 0 && fptree.Item(w) < s.itemBase {
			writerOf[w] = ref
		}
	}
	// Create nodes: readers then partials for virtual consumers.
	refs := make([]overlay.NodeRef, len(s.lists))
	for ci := range s.lists {
		if ci < s.numReaders() {
			r := &s.ag.Readers[ci]
			refs[ci] = ov.AddReader(r.Tag, r.Node)
		} else {
			refs[ci] = ov.AddPartial()
		}
	}
	nodeOfItem := func(it fptree.Item) overlay.NodeRef {
		if s.isVirtualItem(it) {
			return refs[s.consumerOfItem(it)]
		}
		if writerOf[it] == overlay.NoNode {
			writerOf[it] = ov.AddWriter(graph.NodeID(it))
		}
		return writerOf[it]
	}
	// Resolve the sources in edge order (creating any missing writer where
	// the edge loop would have), then count both directions.
	for ci := range s.lists {
		for _, it := range s.lists[ci] {
			nodeOfItem(it)
		}
		for _, it := range s.neg[ci] {
			nodeOfItem(it)
		}
	}
	in, out := make([]int32, ov.Len()), make([]int32, ov.Len())
	for ci := range s.lists {
		in[refs[ci]] = int32(len(s.lists[ci]) + len(s.neg[ci]))
		for _, it := range s.lists[ci] {
			out[nodeOfItem(it)]++
		}
		for _, it := range s.neg[ci] {
			out[nodeOfItem(it)]++
		}
	}
	ov.ReserveEdges(in, out)
	for ci := range s.lists {
		for _, it := range s.lists[ci] {
			if err := ov.AddEdge(nodeOfItem(it), refs[ci], false); err != nil {
				return nil, err
			}
		}
		for _, it := range s.neg[ci] {
			if err := ov.AddEdge(nodeOfItem(it), refs[ci], true); err != nil {
				return nil, err
			}
		}
	}
	if _, err := ov.TopoOrder(); err != nil {
		return nil, err
	}
	return ov, nil
}

// buildVNM runs the configured VNM variant to completion; adaptive runs
// VNM_A's chunk-size schedule, reuse lets VNM_D re-serve mined edges.
func buildVNM(ag *bipartite.AG, cfg Config, adaptive, reuse bool) (*Result, error) {
	s := newVNMState(ag, cfg, reuse)
	chunk := cfg.ChunkSize
	var times []time.Duration
	for iter := 0; iter < cfg.Iterations; iter++ {
		start := time.Now()
		s.benefit = make(map[int]int)
		applied := s.runIteration(chunk)
		s.history = append(s.history, s.sharingIndex())
		times = append(times, time.Since(start))
		if adaptive {
			chunk = s.nextChunkSize(chunk)
		}
		if applied == 0 {
			break
		}
	}
	ov, err := s.assemble()
	if err != nil {
		return nil, err
	}
	return &Result{
		Overlay:             ov,
		SharingIndexHistory: s.history,
		IterTimes:           times,
		BenefitBySize:       s.benefit,
	}, nil
}
