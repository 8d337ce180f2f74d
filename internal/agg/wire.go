package agg

import (
	"errors"
	"fmt"
	"sort"
)

// Wire-format PAO snapshots for cross-shard reads.
//
// A sharded deployment answers a read by asking every shard for its local
// partial aggregate and merging the answers (the paper's PAO decomposition,
// applied across processes instead of across overlay nodes). Live PAOs
// cannot cross a process boundary — and even in-process, handing out a
// pointer into engine state would leak arena lifetimes — so each built-in
// PAO can export its state as a WirePAO: a flat, JSON-serializable value
// snapshot. The coordinator imports each snapshot into a fresh PAO of the
// same aggregate, folds them together with the ordinary Merge path, and
// runs a single Finalize, so cross-shard semantics are exactly the
// single-process merge semantics.
//
// Exactness: every built-in except topk~ merges losslessly over the wire.
// sum/count/avg/stddev carry their algebraic tuples; max/min carry the
// contribution multiset (the coordinator-side Merge contributes each
// shard's extremum, and max-of-maxes is max); topk/distinct carry exact
// frequency multisets; distinct~'s counting Bloom filter is linear, so adding
// counters cell-wise is the same sketch the single process would have
// built. topk~ round-trips its sketch cells exactly too, but its bounded
// candidate list is admission-order dependent, so a sharded topk~ answer
// may legitimately differ from a never-sharded one.

// WirePAO is the flat snapshot of one PAO's state. Field use varies by
// aggregate (sum/count/avg use Sum+N, stddev adds SumSq, multiset PAOs
// use the parallel Values/Freqs arrays, sketches use Cells); unused fields
// stay zero and are omitted from JSON.
type WirePAO struct {
	Sum    int64   `json:"sum,omitempty"`
	N      int64   `json:"n,omitempty"`
	SumSq  int64   `json:"sumSq,omitempty"`
	Values []int64 `json:"values,omitempty"`
	Freqs  []int64 `json:"freqs,omitempty"`
	Cells  []int64 `json:"cells,omitempty"`
}

// WireExporter is implemented by PAOs that can snapshot their state.
type WireExporter interface {
	ExportWire() WirePAO
}

// WireImporter is implemented by PAOs that can replace their state from a
// snapshot produced by the same aggregate's ExportWire. A snapshot no
// ExportWire produces — value and frequency lists of different lengths, a
// value listed twice with a frequency — is rejected with an error and
// leaves the PAO empty.
type WireImporter interface {
	ImportWire(WirePAO) error
}

// ErrNotWireable reports a PAO without wire support (a custom aggregate
// that predates this interface). Sharded reads of such aggregates fail
// loudly instead of answering from partial data.
var ErrNotWireable = errors.New("agg: PAO does not support wire export")

// Export snapshots p, reporting ok=false when p is not a WireExporter.
func Export(p PAO) (WirePAO, bool) {
	e, ok := p.(WireExporter)
	if !ok {
		return WirePAO{}, false
	}
	return e.ExportWire(), true
}

// Import builds a fresh PAO of aggregate a holding exactly the state in w.
func Import(a Aggregate, w WirePAO) (PAO, error) {
	p := a.NewPAO()
	imp, ok := p.(WireImporter)
	if !ok {
		return nil, ErrNotWireable
	}
	if err := imp.ImportWire(w); err != nil {
		return nil, err
	}
	return p, nil
}

// MergeWires merges per-shard snapshots into one answer: import each wire
// into a fresh PAO, fold with Merge, finalize once. This is the read path
// of both the in-process shard.Cluster and the REST router.
func MergeWires(a Aggregate, ws []WirePAO) (Result, error) {
	acc := a.NewPAO()
	for _, w := range ws {
		p, err := Import(a, w)
		if err != nil {
			return Result{}, err
		}
		acc.Merge(p)
	}
	return acc.Finalize(), nil
}

func (p *sumPAO) ExportWire() WirePAO { return WirePAO{Sum: p.sum, N: p.n} }

func (p *sumPAO) ImportWire(w WirePAO) error {
	p.sum, p.n = w.Sum, w.N
	return nil
}

func (p *countPAO) ExportWire() WirePAO { return WirePAO{N: p.n} }

func (p *countPAO) ImportWire(w WirePAO) error {
	p.n = w.N
	return nil
}

func (p *avgPAO) ExportWire() WirePAO { return WirePAO{Sum: p.sum, N: p.n} }

func (p *avgPAO) ImportWire(w WirePAO) error {
	p.sum, p.n = w.Sum, w.N
	return nil
}

func (p *stddevPAO) ExportWire() WirePAO { return WirePAO{Sum: p.sum, N: p.n, SumSq: p.sumSq} }

func (p *stddevPAO) ImportWire(w WirePAO) error {
	p.sum, p.n, p.sumSq = w.Sum, w.N, w.SumSq
	return nil
}

// ExportWire carries the contribution multiset; N is the total multiplicity
// (which may exceed the sum of surviving counts while concurrent writes are
// settling negative entries, so it travels explicitly).
func (p *extremumPAO) ExportWire() WirePAO {
	vals, freqs := p.counts.pairs()
	return WirePAO{Values: vals, Freqs: freqs, N: p.size}
}

func (p *extremumPAO) ImportWire(w WirePAO) error {
	p.Reset()
	if err := p.counts.setPairs(w.Values, w.Freqs); err != nil {
		return err
	}
	p.size = w.N
	p.rebuild()
	return nil
}

func (p *topkPAO) ExportWire() WirePAO {
	vals, freqs := p.freq.pairs()
	return WirePAO{Values: vals, Freqs: freqs, N: p.total}
}

func (p *topkPAO) ImportWire(w WirePAO) error {
	p.Reset()
	if err := p.freq.setPairs(w.Values, w.Freqs); err != nil {
		return err
	}
	p.total = w.N
	return nil
}

func (p *distinctPAO) ExportWire() WirePAO {
	vals, freqs := p.freq.pairs()
	return WirePAO{Values: vals, Freqs: freqs}
}

func (p *distinctPAO) ImportWire(w WirePAO) error {
	return p.freq.setPairs(w.Values, w.Freqs)
}

// ExportWire carries the sketch cells plus the candidate list (as Values).
func (p *cmPAO) ExportWire() WirePAO {
	if p.cells == nil {
		return WirePAO{}
	}
	vals := make([]int64, 0, len(p.cand))
	for v := range p.cand {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return WirePAO{Cells: append([]int64(nil), p.cells...), Values: vals}
}

func (p *cmPAO) ImportWire(w WirePAO) error {
	if len(w.Cells) == 0 && len(w.Values) == 0 {
		p.cells, p.cand = nil, nil
		return nil
	}
	if len(w.Cells) != p.width*p.depth {
		return fmt.Errorf("agg: topk~ wire has %d cells, sketch is %dx%d", len(w.Cells), p.depth, p.width)
	}
	p.cells = nil
	p.init()
	copy(p.cells, w.Cells)
	for _, v := range w.Values {
		p.admit(v)
	}
	return nil
}

func (p *cbfPAO) ExportWire() WirePAO {
	if p.counters == nil {
		return WirePAO{N: p.items}
	}
	cells := make([]int64, len(p.counters))
	for i, c := range p.counters {
		cells[i] = int64(c)
	}
	return WirePAO{Cells: cells, N: p.items}
}

func (p *cbfPAO) ImportWire(w WirePAO) error {
	p.items = w.N
	if len(w.Cells) == 0 {
		p.counters = nil
		return nil
	}
	if len(w.Cells) != p.m {
		return fmt.Errorf("agg: distinct~ wire has %d counters, filter has %d", len(w.Cells), p.m)
	}
	p.counters = make([]int32, p.m)
	for i, c := range w.Cells {
		p.counters[i] = int32(c)
	}
	return nil
}
