package agg

import "math"

// TopK is the built-in TOP-K aggregate of the paper: the k most frequent
// values among the inputs (a generalization of mode, not of max — §5.1,
// footnote 4). It is holistic: the partial state is a frequency multiset that
// may grow with the number of distinct values. It is subtractable (frequency
// multisets subtract), so negative edges are legal.
type TopK struct {
	K int
}

// Name implements Aggregate.
func (t TopK) Name() string { return "topk" }

// Props implements Aggregate.
func (t TopK) Props() Properties {
	return Properties{Subtractable: true}
}

// NewPAO implements Aggregate.
func (t TopK) NewPAO() PAO {
	k := t.K
	if k <= 0 {
		k = 1
	}
	return &topkPAO{k: k, lim: headLimit(k)}
}

// headLimit is the most entries a head for k answers may hold: 2k, saturating
// because k comes unchecked from a query spec.
func headLimit(k int) int {
	if k > math.MaxInt/2 {
		return math.MaxInt
	}
	return 2 * k
}

// topkPAO maintains exact frequencies of the values it has aggregated, plus
// a materialized head of the answer so that a PAO which is finalized often
// (a push reader with subscribers or frequent reads) does not rescan and
// re-rank its whole multiset for every answer.
//
// While armed, head is exactly the best len(head) positive-count entries of
// freq in answer order (count descending, value ascending): every entry
// outside it ranks after its last element, the floor. AddValue/RemoveValue
// keep that true in O(log k) plus one memmove; anything that changes many
// counts at once (Merge, Unmerge, Reset, ImportWire) disarms, and the next
// FinalizeInto refills the head with one pass over the table. Reset clears
// the table in place and the head keeps its backing array, so a pooled
// topkPAO reaches a steady state where neither maintenance nor
// finalization allocates (FinalizeInto also reuses the caller's buffer).
type topkPAO struct {
	k     int
	freq  multiset
	total int64
	// head holds at most lim = 2k entries: k answer a finalize, the other k
	// are slack for entries popped because their rank became unknown. Its
	// array doubles as it fills, to at most lim, so it is sized by the
	// positive entries it has held and never by k, which a query spec may
	// set to anything. A head
	// of freq.pos entries — every positive one — is exhaustive.
	head  []valCount
	lim   int
	armed bool
	// steps counts armed AddValue/RemoveValue calls since the last
	// finalize; see step.
	steps int
}

// valCount pairs a value with its frequency; head is sorted by before.
type valCount struct{ v, c int64 }

// before reports whether a precedes b in answer order: most frequent first,
// ties toward the smaller value.
func before(a, b valCount) bool {
	return a.c > b.c || (a.c == b.c && a.v < b.v)
}

// rank returns how many entries of the sorted h precede e, which is e's
// index when h holds it.
func rank(h []valCount, e valCount) int {
	lo, hi := 0, len(h)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(h[m], e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert places e in the sorted h, dropping h's last entry to make room
// when h already holds lim entries. A full array grows by doubling, to at
// most lim entries.
func insert(h []valCount, e valCount, lim int) []valCount {
	if len(h) == cap(h) && len(h) < lim {
		h = append(make([]valCount, 0, min(max(2*len(h), 4), lim)), h...)
	}
	if len(h) < lim {
		h = append(h, e)
	}
	n := len(h) - 1
	i := rank(h[:n], e)
	copy(h[i+1:], h[i:n])
	h[i] = e
	return h
}

// AddValue on an unarmed PAO (every writer and partial node, and any reader
// written more often than it is finalized) is a single table increment.
func (p *topkPAO) AddValue(v int64) {
	if p.armed {
		p.addArmed(v)
		return
	}
	p.freq.add(v, 1)
	p.total++
}

// RemoveValue tolerates transiently negative counts: when a value is
// cancelled through a negative overlay edge, the subtraction may be applied
// before the positive contribution arrives.
func (p *topkPAO) RemoveValue(v int64) {
	now := p.freq.add(v, -1)
	p.total--
	if p.armed {
		p.sink(valCount{v, now + 1})
	}
}

// step charges one unit of head upkeep and reports whether the head is
// still armed. Upkeep is rented, a refill is bought: once the calls since
// the last finalize outnumber the entries a refill would visit, the
// head is dropped, so a PAO that is written often and finalized rarely pays
// at most about one refill's worth of upkeep per finalize.
func (p *topkPAO) step() bool {
	p.steps++
	if p.steps > p.freq.len() {
		p.armed = false
	}
	return p.armed
}

// addArmed is AddValue with the head kept exact.
func (p *topkPAO) addArmed(v int64) {
	c := p.freq.add(v, 1)
	p.total++
	if !p.step() || c <= 0 {
		return
	}
	h, e := p.head, valCount{v, c}
	n := len(h)
	if old := (valCount{v, c - 1}); c > 1 && n > 0 && !before(h[n-1], old) {
		// At or above the floor, so materialized: move it up.
		i := rank(h, old)
		j := rank(h[:i], e)
		copy(h[j+1:i+1], h[j:i])
		h[j] = e
		return
	}
	// An outsider. It joins when it now beats the floor, or when it is the
	// only positive entry outside a head with room (the head stays
	// exhaustive); otherwise its rank among the other outsiders is unknown
	// and the answer is unchanged.
	if (n > 0 && before(e, h[n-1])) || (n < p.lim && n+1 == p.freq.pos) {
		p.head = insert(h, e, p.lim)
	}
}

// sink keeps the head exact after old's count was decremented.
func (p *topkPAO) sink(old valCount) {
	h := p.head
	n := len(h)
	if !p.step() || old.c <= 0 {
		return
	}
	if n == 0 || before(h[n-1], old) {
		return // below the floor and not rising: the answer is unchanged
	}
	i := rank(h, old)
	e := valCount{old.v, old.c - 1}
	j := i + rank(h[i+1:], e)
	copy(h[i:j], h[i+1:j+1])
	if e.c == 0 || (j == n-1 && n != p.freq.pos) {
		// Gone, or sunk to the last slot of a head that is not exhaustive:
		// an outsider may now outrank it, so it cannot stay materialized.
		p.head = h[:n-1]
		return
	}
	h[j] = e
}

func (p *topkPAO) Merge(other PAO) { p.fold(other.(*topkPAO), 1) }

func (p *topkPAO) Unmerge(other PAO) { p.fold(other.(*topkPAO), -1) }

// fold adds sign times o's frequencies. An empty o changes nothing, so the
// head stays armed.
func (p *topkPAO) fold(o *topkPAO, sign int64) {
	if o.freq.len() == 0 {
		return
	}
	p.armed = false
	p.freq.merge(&o.freq, sign)
	p.total += sign * o.total
}

// Finalize returns the k most frequent values, most frequent first; ties
// break toward the smaller value for determinism.
func (p *topkPAO) Finalize() Result { return p.FinalizeInto(nil) }

// FinalizeInto implements IntoFinalizer: like Finalize, but the answer list
// is written into buf[:0] so callers that retain a result buffer read
// without allocating. It copies the head when the head can answer (k
// entries, or every positive entry of the table) and refills it first when
// it cannot.
func (p *topkPAO) FinalizeInto(buf []int64) Result {
	if p.total > 0 && p.freq.len() > 0 {
		if !p.armed || (len(p.head) < p.k && len(p.head) != p.freq.pos) {
			p.refill()
		}
		p.steps = 0
		if n := min(p.k, len(p.head)); n > 0 {
			out := buf[:0]
			if cap(out) < n {
				out = make([]int64, 0, n)
			}
			for _, e := range p.head[:n] {
				out = append(out, e.v)
			}
			return Result{List: out, Valid: true}
		}
	}
	if buf == nil {
		return Result{List: []int64{}, Valid: false}
	}
	return Result{List: buf[:0], Valid: false}
}

// FinalizeOnce implements OnceFinalizer: FinalizeInto with the head limited
// to k for the one refill — min(k, positive entries) selected, not the 2k an
// armed head keeps as upkeep slack — and left unarmed, since nothing will
// finalize this PAO again. FinalizeInto itself, the push readers' path, is
// untouched.
func (p *topkPAO) FinalizeOnce(buf []int64) Result {
	lim := p.lim
	p.lim, p.armed = p.k, false
	res := p.FinalizeInto(buf)
	p.lim, p.armed = lim, false
	return res
}

// refill rebuilds the head from the table by bounded insertion: an entry
// that does not beat the floor of a full head is skipped with one comparison.
func (p *topkPAO) refill() {
	h := p.head[:0]
	for _, s := range p.freq.slots {
		if s.c <= 0 {
			continue
		}
		if e := (valCount{s.v, s.c}); len(h) < p.lim || before(e, h[len(h)-1]) {
			h = insert(h, e, p.lim)
		}
	}
	p.head = h
	p.armed = true
}

// Reset clears the frequencies in place, retaining the slot and head arrays
// so a pooled PAO is reusable without allocation.
func (p *topkPAO) Reset() {
	p.freq.clear()
	p.total = 0
	p.armed = false
}

// Distinct is the built-in DISTINCT (UNIQUE) aggregate: the number of
// distinct values among the inputs. It is duplicate-insensitive under set
// semantics; our exact implementation tracks multiplicities so windows can
// expire values, and exposes duplicate-insensitivity for overlay purposes
// only when used with set semantics (multiple paths may overcount
// multiplicities but not membership).
type Distinct struct{}

// Name implements Aggregate.
func (Distinct) Name() string { return "distinct" }

// Props implements Aggregate.
func (Distinct) Props() Properties {
	return Properties{DuplicateInsensitive: true}
}

// NewPAO implements Aggregate.
func (Distinct) NewPAO() PAO { return &distinctPAO{} }

// distinctPAO is the multiset itself: the answer is its count of positive
// entries, which the kernel keeps, so Finalize is a field read.
type distinctPAO struct {
	freq multiset
}

func (p *distinctPAO) AddValue(v int64) { p.freq.add(v, 1) }

// RemoveValue tolerates transiently negative counts (see topkPAO).
func (p *distinctPAO) RemoveValue(v int64) { p.freq.add(v, -1) }

func (p *distinctPAO) Merge(other PAO) { p.freq.merge(&other.(*distinctPAO).freq, 1) }

func (p *distinctPAO) Unmerge(other PAO) { p.freq.merge(&other.(*distinctPAO).freq, -1) }

func (p *distinctPAO) Finalize() Result {
	return Result{Scalar: int64(p.freq.pos), Valid: true}
}

// Reset clears the frequencies in place (slots retained for pooled reuse).
func (p *distinctPAO) Reset() { p.freq.clear() }
