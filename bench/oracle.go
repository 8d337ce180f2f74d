package main

import (
	"fmt"
	"sort"

	eagr "repro"
	"repro/internal/graph"
)

// The oracle is the driver's own record of what it sent: the raw
// per-writer history and the final graph. Answers are recomputed from it
// by brute force, with none of the program's overlay, window or topology
// code, and compared with what the program returns.

type entry struct {
	v  int64
	ts int64
}

// history keeps, per writer, the most recent `keep` writes. keep is sized
// by the caller to cover every registered window (tuple windows need the
// last c entries; time windows every entry newer than the cut, which a
// global ring of the last T writes bounds since timestamps are sequence
// numbers).
type history struct {
	perWriter [][]entry // ring per writer, oldest first after compaction
	keep      int
	recent    []struct {
		node graph.NodeID
		e    entry
	} // global ring of the last len(recent) writes, for time windows
	head   int
	filled bool
	maxTS  int64
}

func newHistory(maxID, keepPerWriter, recentWrites int) *history {
	h := &history{perWriter: make([][]entry, maxID), keep: keepPerWriter}
	// Everything is allocated up front, so the history sits inside the heap
	// baseline a workload reads before its last set-up and never grows.
	backing := make([]entry, maxID*keepPerWriter)
	for v := range h.perWriter {
		h.perWriter[v] = backing[v*keepPerWriter : v*keepPerWriter : (v+1)*keepPerWriter]
	}
	if recentWrites > 0 {
		// A sharded fleet expires up to the slowest shard's watermark, which
		// trails the newest write by up to a batch; keep that much more.
		recentWrites += 16 * batchSize
	}
	h.recent = make([]struct {
		node graph.NodeID
		e    entry
	}, recentWrites)
	return h
}

func (h *history) record(node graph.NodeID, v, ts int64) {
	r := h.perWriter[node]
	if len(r) == h.keep {
		copy(r, r[1:])
		r = r[:h.keep-1]
	}
	h.perWriter[node] = append(r, entry{v, ts})
	if len(h.recent) > 0 {
		h.recent[h.head].node = node
		h.recent[h.head].e = entry{v, ts}
		h.head++
		if h.head == len(h.recent) {
			h.head, h.filled = 0, true
		}
	}
	if ts > h.maxTS {
		h.maxTS = ts
	}
}

// lastTuples returns writer u's last c values.
func (h *history) lastTuples(u graph.NodeID, c int) []int64 {
	r := h.perWriter[u]
	if len(r) > c {
		r = r[len(r)-c:]
	}
	out := make([]int64, len(r))
	for i, e := range r {
		out[i] = e.v
	}
	return out
}

// timeWindowValues returns, per writer, the values still inside a time
// window of width T when time-based windows have been expired up to
// `expired` (the watermark). A writer's own latest write also expires its
// older entries (TimeWindow.Add expires as of the new timestamp).
func (h *history) timeWindowValues(T, expired int64) map[graph.NodeID][]int64 {
	n := h.head
	if h.filled {
		n = len(h.recent)
	}
	last := map[graph.NodeID]int64{}
	for i := 0; i < n; i++ {
		r := h.recent[i]
		if r.e.ts > last[r.node] {
			last[r.node] = r.e.ts
		}
	}
	out := map[graph.NodeID][]int64{}
	// walk oldest to newest so the multiset order is deterministic
	for k := 0; k < n; k++ {
		i := k
		if h.filled {
			i = (h.head + k) % len(h.recent)
		}
		r := h.recent[i]
		cut := expired
		if l := last[r.node]; l > cut {
			cut = l
		}
		if r.e.ts > cut-T {
			out[r.node] = append(out[r.node], r.e.v)
		}
	}
	return out
}

// graphModel is the driver's copy of the data graph, kept as plain edge
// sets and mutated only by the structural events the driver itself sent.
type graphModel struct {
	in  []map[graph.NodeID]struct{} // in[v] = {u : u→v}
	out []map[graph.NodeID]struct{}
}

func newGraphModel(g *graph.Graph) *graphModel {
	n := g.MaxID()
	m := &graphModel{in: make([]map[graph.NodeID]struct{}, n), out: make([]map[graph.NodeID]struct{}, n)}
	for v := 0; v < n; v++ {
		m.in[v] = map[graph.NodeID]struct{}{}
		m.out[v] = map[graph.NodeID]struct{}{}
	}
	g.ForEachNode(func(v graph.NodeID) {
		for _, u := range g.In(v) {
			m.in[v][u] = struct{}{}
			m.out[u][v] = struct{}{}
		}
	})
	return m
}

func (m *graphModel) apply(ev graph.Event) {
	switch ev.Kind {
	case graph.EdgeAdd:
		m.in[ev.Peer][ev.Node] = struct{}{}
		m.out[ev.Node][ev.Peer] = struct{}{}
	case graph.EdgeRemove:
		delete(m.in[ev.Peer], ev.Node)
		delete(m.out[ev.Node], ev.Peer)
	}
}

// inNeighbors is N(v) of the default neighbourhood, sorted.
func (m *graphModel) inNeighbors(v graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m.in[v]))
	for u := range m.in[v] {
		out = append(out, u)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// undirected returns v's 1-hop undirected ego-network members (self-loops
// never count).
func (m *graphModel) undirected(v graph.NodeID) map[graph.NodeID]struct{} {
	nb := map[graph.NodeID]struct{}{}
	for u := range m.in[v] {
		if u != v {
			nb[u] = struct{}{}
		}
	}
	for u := range m.out[v] {
		if u != v {
			nb[u] = struct{}{}
		}
	}
	return nb
}

func (m *graphModel) connected(a, b graph.NodeID) bool {
	_, ab := m.out[a][b]
	_, ba := m.out[b][a]
	return ab || ba
}

// triangles counts neighbour pairs of v that are themselves connected.
func (m *graphModel) triangles(v graph.NodeID) (tri int64, degree int64) {
	nb := m.undirected(v)
	list := make([]graph.NodeID, 0, len(nb))
	for u := range nb {
		list = append(list, u)
	}
	for i := 0; i < len(list); i++ {
		for j := i + 1; j < len(list); j++ {
			if m.connected(list[i], list[j]) {
				tri++
			}
		}
	}
	return tri, int64(len(list))
}

// windowSpec is the part of a QuerySpec the oracle needs.
type windowSpec struct {
	agg    string // sum | max | topk
	k      int    // topk parameter
	tuples int    // tuple window size, 0 if time-based
	T      int64  // time window width, 0 if tuple-based
}

func windowOf(spec eagr.QuerySpec) (windowSpec, error) {
	w := windowSpec{tuples: spec.WindowTuples, T: spec.WindowTime}
	if w.tuples == 0 && w.T == 0 {
		w.tuples = 1
	}
	switch spec.Aggregate {
	case "sum", "max":
		w.agg = spec.Aggregate
	case "topk(10)":
		w.agg, w.k = "topk", 10
	default:
		return w, fmt.Errorf("oracle: no brute force for aggregate %q", spec.Aggregate)
	}
	return w, nil
}

// bruteForce recomputes one content query at one ego: gather the in-window
// values of every in-neighbour, then aggregate them from scratch.
func bruteForce(w windowSpec, nbrs []graph.NodeID, h *history, timeVals map[graph.NodeID][]int64) eagr.Result {
	var vals []int64
	for _, u := range nbrs {
		if w.T > 0 {
			vals = append(vals, timeVals[u]...)
		} else {
			vals = append(vals, h.lastTuples(u, w.tuples)...)
		}
	}
	switch w.agg {
	case "sum":
		var s int64
		for _, v := range vals {
			s += v
		}
		return eagr.Result{Scalar: s, Valid: len(vals) > 0}
	case "max":
		if len(vals) == 0 {
			return eagr.Result{}
		}
		mx := vals[0]
		for _, v := range vals {
			if v > mx {
				mx = v
			}
		}
		return eagr.Result{Scalar: mx, Valid: true}
	default: // topk: k most frequent values, ties toward the smaller value
		if len(vals) == 0 {
			return eagr.Result{List: []int64{}}
		}
		freq := map[int64]int64{}
		for _, v := range vals {
			freq[v]++
		}
		keys := make([]int64, 0, len(freq))
		for v := range freq {
			keys = append(keys, v)
		}
		sort.Slice(keys, func(a, b int) bool {
			if freq[keys[a]] != freq[keys[b]] {
				return freq[keys[a]] > freq[keys[b]]
			}
			return keys[a] < keys[b]
		})
		if len(keys) > w.k {
			keys = keys[:w.k]
		}
		return eagr.Result{List: keys, Valid: true}
	}
}

// sameResult compares an answer with the oracle's. Lists compare element
// by element; an invalid answer only has to be invalid.
func sameResult(got, want eagr.Result) bool {
	if got.Valid != want.Valid {
		return false
	}
	if !want.Valid {
		return true
	}
	if len(want.List) > 0 || len(got.List) > 0 {
		if len(got.List) != len(want.List) {
			return false
		}
		for i := range want.List {
			if got.List[i] != want.List[i] {
				return false
			}
		}
		return true
	}
	return got.Scalar == want.Scalar
}

// topoBrute recomputes a topology aggregate at one ego from the model.
func topoBrute(name string, m *graphModel, v graph.NodeID) eagr.Result {
	tri, k := m.triangles(v)
	switch name {
	case "triangles":
		return eagr.Result{Scalar: tri, Valid: true}
	default: // density, in millionths
		if k < 2 {
			return eagr.Result{Valid: true}
		}
		return eagr.Result{Scalar: tri * 2 * eagr.TopoScale / (k * (k - 1)), Valid: true}
	}
}

// checker tallies oracle comparisons; every comparison is an attempted
// operation and every mismatch a failed one.
type checker struct {
	checked, mismatched int64
	first               string
}

func (c *checker) compare(what string, ego graph.NodeID, got, want eagr.Result) {
	c.checked++
	if !sameResult(got, want) {
		c.mismatched++
		if c.first == "" {
			c.first = fmt.Sprintf("%s at ego %d: got %v want %v", what, ego, got, want)
		}
	}
}

func (c *checker) fail(what string, err error) {
	c.checked++
	c.mismatched++
	if c.first == "" {
		c.first = fmt.Sprintf("%s: %v", what, err)
	}
}

// book adds the comparisons to the run's attempted and failed operations.
func (c *checker) book(res *runResult, what string) {
	res.ops(c.checked, c.mismatched)
	if c.mismatched > 0 {
		res.Failures = append(res.Failures, what+": "+c.first)
	}
}

// verifyContent checks every given content query at every sampled ego
// against the brute-force answer. read abstracts how the answer is
// fetched (library call, or HTTP through the router).
func verifyContent(c *checker, specs []eagr.QuerySpec, read func(qi int, ego graph.NodeID) (eagr.Result, error),
	egos []graph.NodeID, m *graphModel, h *history, expired int64) {
	for qi, spec := range specs {
		w, err := windowOf(spec)
		if err != nil {
			continue // topology queries are checked by verifyTopo
		}
		var timeVals map[graph.NodeID][]int64
		if w.T > 0 {
			timeVals = h.timeWindowValues(w.T, expired)
		}
		for _, ego := range egos {
			got, err := read(qi, ego)
			if err != nil {
				c.fail(fmt.Sprintf("%s read ego %d", spec.Aggregate, ego), err)
				continue
			}
			c.compare(spec.Aggregate, ego, got, bruteForce(w, m.inNeighbors(ego), h, timeVals))
		}
	}
}
