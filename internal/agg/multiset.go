package agg

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// multiset is the partial state under TOP-K, MAX/MIN and DISTINCT: a flat
// open-addressing table from value to signed multiplicity, one
// representation at every size.
//
// Invariants:
//
//   - len(slots) is zero or a power of two, at least one slot is always
//     empty once slots exist (occupancy stays at or below 3/4), and a
//     value's slot is found by linear probing from its home slot with no
//     empty slot in between (deletion shifts the run back, so there are no
//     tombstones and lookups never degrade with churn).
//   - count 0 ⇔ slot empty. A value whose count reaches zero leaves the
//     table, so every int64 — 0 and MinInt64 included — is a legal value,
//     and negative counts (a removal applied before the addition it
//     cancels) are ordinary entries.
//   - n is the number of entries and pos how many of them are positive;
//     both are exact after every operation.
//
// Iteration is a scan of the slot array (`for _, s := range m.slots`,
// skipping s.c == 0), so its order is the hash order and its cost the
// capacity, like a map's. The zero value is an empty multiset.
type multiset struct {
	slots []entry
	n     int
	pos   int
	shift uint8 // 64 - log2(len(slots)): home slots come from the hash's top bits
	// idle counts the consecutive clears that found the table far larger
	// than its use needed, and need is the most entries those uses held
	// (see clear).
	idle uint8
	need uint32
}

// entry is one slot: value v with multiplicity c, empty when c is zero.
type entry struct{ v, c int64 }

// hashSeed keys the hash per process, so values arriving over /ingest
// cannot be chosen to share a home slot.
var hashSeed = rand.Uint64()

// home is v's home slot: two multiply-xorshift rounds over the seeded value,
// top bits taken. One multiplication is not enough under linear probing: a
// random odd multiplier turns an everyday arithmetic progression (steps of
// 1, 100, 1<<32) into a run as long as the table for a fraction of a
// percent of seeds, and a fixed one does it for steps anyone can compute
// (the golden ratio for a step of 10). TestMultisetProbeLength pins what
// this mixer does on such inputs.
func (m *multiset) home(v int64) uint64 {
	h := uint64(v) ^ hashSeed
	h = (h ^ h>>32) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>32) * 0x94d049bb133111eb
	return h >> m.shift
}

// minSlots is the first table: four slots (64 bytes, a third of the
// smallest Go map) hold three values, enough for life for the writer of a
// window of up to three tuples.
const minSlots = 4

// limit is the most entries the current table may hold.
func (m *multiset) limit() int { return len(m.slots) - len(m.slots)/4 }

// len returns the number of values with a non-zero count.
func (m *multiset) len() int { return m.n }

// get returns v's count, 0 when absent.
func (m *multiset) get(v int64) int64 {
	if m.n == 0 {
		return 0
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(v); ; i = (i + 1) & mask {
		s := m.slots[i]
		if s.c == 0 || s.v == v {
			return s.c
		}
	}
}

// add adds d (of either sign) to v's count and returns the new count; an
// entry whose count reaches zero is removed.
func (m *multiset) add(v, d int64) int64 {
	if d == 0 {
		return m.get(v)
	}
	if len(m.slots) == 0 {
		m.resize(minSlots)
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(v); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.c == 0 {
			if m.n >= m.limit() {
				m.resize(2 * len(m.slots))
				return m.add(v, d)
			}
			s.v, s.c = v, d
			m.n++
			if d > 0 {
				m.pos++
			}
			return d
		}
		if s.v != v {
			continue
		}
		old, now := s.c, s.c+d
		if (old > 0) != (now > 0) {
			if now > 0 {
				m.pos++
			} else {
				m.pos--
			}
		}
		if now == 0 {
			m.remove(i)
		} else {
			s.c = now
		}
		return now
	}
}

// remove empties slot i and closes the gap: each later entry of the same
// run moves back into the hole unless that would put it before its home.
func (m *multiset) remove(i uint64) {
	mask := uint64(len(m.slots) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := m.slots[j]
		if s.c == 0 {
			break
		}
		// s may fill the hole when its home is not in (i, j], cyclically.
		if (j-m.home(s.v))&mask >= (j-i)&mask {
			m.slots[i] = s
			i = j
		}
	}
	m.slots[i] = entry{}
	m.n--
}

// resize moves the entries into a fresh table of size slots (a power of
// two). Scanning the old table in slot order visits values in hash order,
// which is also the new table's, so reinsertion never builds long runs.
func (m *multiset) resize(size int) {
	old := m.slots
	m.slots = make([]entry, size)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.c == 0 {
			continue
		}
		i := m.home(s.v)
		for m.slots[i].c != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// tableFor is the smallest table that holds n entries.
func tableFor(n int) int {
	size := minSlots
	for size-size/4 < n {
		size *= 2
	}
	return size
}

// reserve makes room for n entries without a further resize.
func (m *multiset) reserve(n int) {
	if n > m.limit() {
		m.resize(tableFor(n))
	}
}

// merge adds sign (+1 or -1) times every count of o to m. Room for the
// larger operand is reserved first: o is scanned in hash order, which is m's
// order too, and feeding a table that is still growing in its own hash order
// piles each growth step's arrivals into the low end of the table —
// quadratic probing in the size of o. Reserving the sum instead would size a
// pull's pooled arena by its inputs' sizes added up, not by their union.
func (m *multiset) merge(o *multiset, sign int64) {
	if o.n == 0 {
		return
	}
	m.reserve(max(m.n, o.n))
	for _, s := range o.slots {
		if s.c != 0 {
			m.add(s.v, sign*s.c)
		}
	}
}

// Shrinking on clear: a table of more than shrinkFloor slots that
// shrinkAfter clears in a row found over shrinkRatio times the size its use
// needed is replaced by one sized for the largest of those uses.
const (
	shrinkFloor = 64
	shrinkRatio = 8
	shrinkAfter = 32
)

// clear empties the multiset in place, keeping the slot array unless it has
// stayed far larger than its recent uses needed. A pooled PAO — a pull
// read's arena — is cleared before every use, and both the clear and a
// TOP-K refill cost the capacity, so one read of a hub would otherwise leave
// every later small read paying for the hub's table. A table that some use
// among every shrinkAfter still fills is kept, so a steady state allocates
// nothing.
func (m *multiset) clear() {
	need := max(m.n, int(m.need))
	if len(m.slots) <= max(shrinkFloor, shrinkRatio*tableFor(need)) {
		m.idle, m.need = 0, 0
	} else if m.idle++; m.idle < shrinkAfter {
		m.need = uint32(need)
	} else {
		size := tableFor(need)
		*m = multiset{slots: make([]entry, size), shift: uint8(64 - bits.TrailingZeros(uint(size)))}
		return
	}
	if m.n != 0 {
		clear(m.slots)
		m.n, m.pos = 0, 0
	}
}

// pairs flattens the multiset into parallel arrays, values ascending, so
// the same state always serializes to the same bytes.
func (m *multiset) pairs() (vals, freqs []int64) {
	if m.n == 0 {
		return nil, nil
	}
	vals = make([]int64, 0, m.n)
	for _, s := range m.slots {
		if s.c != 0 {
			vals = append(vals, s.v)
		}
	}
	slices.Sort(vals)
	freqs = make([]int64, len(vals))
	for i, v := range vals {
		freqs[i] = m.get(v)
	}
	return vals, freqs
}

// setPairs replaces the contents by the given (value, count) pairs, the
// inverse of pairs. Zero counts carry nothing and are skipped; a value
// listed twice with a count is malformed (which count is meant?) and
// rejected, leaving m empty.
func (m *multiset) setPairs(vals, freqs []int64) error {
	m.clear()
	if len(vals) != len(freqs) {
		return fmt.Errorf("agg: wire pairs mismatch: %d values, %d freqs", len(vals), len(freqs))
	}
	m.reserve(len(vals))
	for i, v := range vals {
		if freqs[i] == 0 {
			continue
		}
		if m.get(v) != 0 {
			m.clear()
			return fmt.Errorf("agg: wire pairs list value %d twice", v)
		}
		m.add(v, freqs[i])
	}
	return nil
}
