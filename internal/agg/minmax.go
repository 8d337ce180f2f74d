package agg

// Max is the built-in MAX aggregate. It is duplicate-insensitive, so
// overlays with multiple writer→reader paths (VNM_D) are legal. Incremental
// maintenance uses a lazy-deletion priority queue over contributions, giving
// H(k) ∝ log k as modeled in §4.2 of the paper (a PAO that never held more
// than six distinct contributions caches its best instead: O(1)). As a
// SelectAggregate its pull over k inputs reads each input's best once and
// keeps the better — no PAO, multiset or heap is built — so L(k) is still
// ∝ k, with a smaller constant than a merge.
type Max struct{}

// Name implements Aggregate.
func (Max) Name() string { return "max" }

// Props implements Aggregate.
func (Max) Props() Properties { return Properties{DuplicateInsensitive: true} }

// NewPAO implements Aggregate.
func (Max) NewPAO() PAO { return &extremumPAO{max: true} }

// Better implements SelectAggregate.
func (Max) Better(a, b int64) bool { return a > b }

// Min is the built-in MIN aggregate (duplicate-insensitive and a
// SelectAggregate, like MAX).
type Min struct{}

// Name implements Aggregate.
func (Min) Name() string { return "min" }

// Props implements Aggregate.
func (Min) Props() Properties { return Properties{DuplicateInsensitive: true} }

// NewPAO implements Aggregate.
func (Min) NewPAO() PAO { return &extremumPAO{max: false} }

// Better implements SelectAggregate.
func (Min) Better(a, b int64) bool { return a < b }

// extremumPAO maintains a multiset of contributions. Each Merge of an
// upstream PAO contributes that PAO's current extremum as one multiset
// element; Unmerge removes it. Raw values at writer nodes are elements
// themselves. This supports windows and incremental updates in O(log k)
// amortized.
//
// How the best is found depends on the size of the counts table, never on a
// setting:
//
//   - small (at most smallSlots slots, so at most six values — every writer
//     of a window of a few tuples, and a partial over a few of them): no
//     heap. best is cached and kept exact on every change, so Best is a
//     load; only removing the current best rescans the table.
//   - large (the table outgrew smallSlots): a lazy-deletion heap. Every value
//     with positive multiplicity has at least one heap entry; the heap may
//     also hold stale entries (removed values, duplicates of a value that left
//     and came back), popped when they surface in Best and swept by a rebuild
//     once they outnumber the live values two to one — so a PAO that is
//     written but never finalized stays O(distinct values), not O(writes).
//
// Between Resets the table only grows, so a PAO switches from small to large
// at most once per use, on the step that resizes it past smallSlots — an add,
// an early removal's negative entry, or ImportWire. A Reset may shrink an
// oversized table (multiset.clear) back into small mode, empty.
type extremumPAO struct {
	max    bool
	counts multiset // value -> multiplicity
	heap   []int64  // large mode: binary heap, best value first; lazy, see above
	best   int64    // small mode: the best positive value, when counts.pos > 0
	size   int64    // total multiplicity
}

// smallSlots is the largest counts table an extremumPAO keeps without a heap.
const smallSlots = 8

func (p *extremumPAO) small() bool { return len(p.counts.slots) <= smallSlots }

func (p *extremumPAO) addElem(v int64) {
	p.size++
	wasSmall := p.small()
	c := p.counts.add(v, 1)
	if p.small() {
		if c == 1 && (p.counts.pos == 1 || p.before(v, p.best)) {
			p.best = v
		}
		return
	}
	if wasSmall {
		p.rebuild() // the table just outgrew small mode: heap from here on
		return
	}
	if c != 1 {
		// Already positive, so already in the heap — or still settling a
		// transient early removal.
		return
	}
	if len(p.heap) > 2*p.counts.len()+16 {
		p.rebuild()
		return
	}
	p.heap = append(p.heap, v)
	p.up(len(p.heap) - 1)
}

// removeElem tolerates a removal arriving before its matching addition
// (multiplicity transiently negative): two concurrent writes on one writer
// walk its push closure outside the writer's mutex, so the eviction of a
// value may reach downstream state before the addition it cancels. The
// multiset converges once both sides have been applied.
func (p *extremumPAO) removeElem(v int64) {
	wasSmall := p.small()
	c := p.counts.add(v, -1)
	p.size--
	if small := p.small(); small != wasSmall || small && c == 0 && v == p.best {
		// An early removal's negative entry outgrew small mode (heap from
		// here on), or the best left.
		p.rebuild()
	}
	// Large mode cleans heap entries lazily in Best() and rebuild().
}

// Best implements SelectPAO: the current extremum — a load in small mode; in
// large mode stale heap entries are discarded on the way.
func (p *extremumPAO) Best() (int64, bool) {
	if p.size <= 0 {
		return 0, false
	}
	if p.small() {
		if p.counts.pos == 0 {
			return 0, false
		}
		return p.best, true
	}
	for len(p.heap) > 0 {
		v := p.heap[0]
		if p.counts.get(v) > 0 {
			return v, true
		}
		n := len(p.heap) - 1
		p.heap[0] = p.heap[n]
		p.heap = p.heap[:n]
		p.down(0)
	}
	return 0, false
}

// rebuild re-derives the read structure from counts: in small mode it
// rescans the table for the best; in large mode it replaces the heap by one
// entry per value of positive multiplicity (heapified bottom-up,
// O(len(counts))). After a large rebuild the heap is no longer than counts,
// so the next one is at least len(counts)+16 pushes away: amortized O(1) per
// addElem.
func (p *extremumPAO) rebuild() {
	p.heap = p.heap[:0]
	if p.small() {
		found := false
		for _, s := range p.counts.slots {
			if s.c > 0 && (!found || p.before(s.v, p.best)) {
				p.best, found = s.v, true
			}
		}
		return
	}
	for _, s := range p.counts.slots {
		if s.c > 0 {
			p.heap = append(p.heap, s.v)
		}
	}
	for i := len(p.heap)/2 - 1; i >= 0; i-- {
		p.down(i)
	}
}

// before reports whether a is a better extremum than b (sits above it in the
// heap).
func (p *extremumPAO) before(a, b int64) bool {
	if p.max {
		return a > b
	}
	return a < b
}

func (p *extremumPAO) up(i int) {
	h := p.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !p.before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (p *extremumPAO) down(i int) {
	h := p.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && p.before(h[r], h[c]) {
			c = r
		}
		if !p.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (p *extremumPAO) AddValue(v int64)    { p.addElem(v) }
func (p *extremumPAO) RemoveValue(v int64) { p.removeElem(v) }

func (p *extremumPAO) Merge(other PAO) {
	o := other.(*extremumPAO)
	if v, ok := o.Best(); ok {
		p.addElem(v)
	}
}

func (p *extremumPAO) Unmerge(other PAO) {
	o := other.(*extremumPAO)
	if v, ok := o.Best(); ok {
		p.removeElem(v)
	}
}

func (p *extremumPAO) Finalize() Result {
	v, ok := p.Best()
	return Result{Scalar: v, Valid: ok}
}

// Reset clears the multiset in place (slot and heap arrays retained, so the
// mode too), so a pooled PAO is reusable without allocation.
func (p *extremumPAO) Reset() {
	p.counts.clear()
	p.heap = p.heap[:0]
	p.size = 0
}
