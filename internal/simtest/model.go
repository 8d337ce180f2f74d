// Package simtest is the one brute-force reference for EAGr's contract
// (paper §2.1–§2.2): every ego-centric read equals the aggregate over
// N(v)'s in-window values on the current graph. It has three parts: Model
// keeps its own plain-map graph, each node's (value, ts) stream and the
// stream's clock, and recomputes every aggregate from scratch on every
// read; Generate draws a seeded op list from one op alphabet; Config.Run
// checks a target against the model after every op and, on a failure,
// shrinks the op list and prints it with the go test line that replays it.
//
// It imports only internal/graph, so the tests of the root package,
// internal/shard, cmd/eagr-router and internal/topo all share it.
package simtest

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// NodeID is a data-graph node id.
type NodeID = graph.NodeID

// Scale is the fixed-point scale of density and ego-betweenness, the value
// of internal/topo's and eagr.TopoScale.
const Scale = 1_000_000

// Spec is a standing query: eagr.QuerySpec's fields plus Family, which an
// unmerged cell sets to keep queries of one merge family apart (the target
// registers them with distinct compile options).
type Spec struct {
	Aggregate    string
	WindowTuples int
	WindowTime   int64
	Hops         int
	Continuous   bool
	Family       int
}

// Topo reports whether s is topology-valued: a function of the graph alone.
func (s Spec) Topo() bool {
	return slices.Contains([]string{"density", "triangles", "wedges", "ego-betweenness"}, s.Aggregate)
}

// Approx reports whether s is approximate: the model does not recompute it,
// and Run compares it against the Config's reference target.
func (s Spec) Approx() bool { return strings.Contains(s.Aggregate, "~") }

// family is the key of shared window state: a query joining a live family
// reads the family's history, one starting a family only later writes.
func (s Spec) family() string {
	wc := s.WindowTuples
	if wc < 1 && s.WindowTime == 0 {
		wc = 1
	}
	return fmt.Sprintf("%s|%d|%d|%t|%d", s.Aggregate, wc, s.WindowTime, s.Continuous, s.Family)
}

// Result mirrors agg.Result field for field, so targets convert with
// simtest.Result(r).
type Result struct {
	Scalar int64
	List   []int64
	Valid  bool
}

// Eq compares two results; an invalid (empty) result carries no value.
func (r Result) Eq(o Result) bool {
	return r.Valid == o.Valid && (!r.Valid || r.Scalar == o.Scalar && slices.Equal(r.List, o.List))
}

// write is one applied content event, with its place in the stream and the
// number of closes of time before it.
type write struct {
	v, ts, seq int64
	closes     int
}

// Model is the reference state. Nothing in it comes from a system under
// test except the id a NodeAdd allocated, and the model checks that id was
// free.
type Model struct {
	alive   map[NodeID]bool
	out, in map[NodeID]map[NodeID]bool
	free    []NodeID // removed ids, reused last-removed first
	next    NodeID   // one past the largest id ever allocated
	streams map[NodeID][]write
	closes  []int64 // every close of time, in order
	seq     int64
	now     int64 // stream time: the largest non-zero timestamp; MinInt64 = none
	closed  int64 // the furthest close; MinInt64 = none

	queries  map[int]Spec
	families map[string]*family
	memo     map[[2]string][]int64 // Window, until the next mutation
}

type family struct {
	born    int64 // the first write seq its windows hold
	members int
}

// NewModel starts a model over a copy of g's structure; g has no removed
// ids (the graph's free list is not exported).
func NewModel(g *graph.Graph) *Model {
	m := &Model{alive: map[NodeID]bool{}, out: map[NodeID]map[NodeID]bool{}, in: map[NodeID]map[NodeID]bool{},
		streams: map[NodeID][]write{}, now: math.MinInt64, closed: math.MinInt64, next: NodeID(g.MaxID()),
		queries: map[int]Spec{}, families: map[string]*family{}}
	for _, v := range g.Nodes() {
		m.alive[v] = true
		for _, w := range g.Out(v) {
			m.link(v, w, true)
		}
	}
	return m
}

func (m *Model) link(u, w NodeID, on bool) {
	set := func(idx map[NodeID]map[NodeID]bool, a, b NodeID) {
		switch {
		case !on:
			delete(idx[a], b)
		case idx[a] == nil:
			idx[a] = map[NodeID]bool{b: true}
		default:
			idx[a][b] = true
		}
	}
	set(m.out, u, w)
	set(m.in, w, u)
}

// Alive reports whether v is a live node.
func (m *Model) Alive(v NodeID) bool { return m.alive[v] }

// MaxID is one past the largest node id ever allocated.
func (m *Model) MaxID() NodeID { return m.next }

// Nodes returns the live node ids in increasing order.
func (m *Model) Nodes() []NodeID { return slices.Sorted(maps.Keys(m.alive)) }

// Apply applies one event in stream order and folds its timestamp into
// stream time. ids, when not nil, holds the ids the target allocated for
// the batch's NodeAdd events; Apply takes its head for a NodeAdd (else the
// allocator's choice: the last removed id, or a fresh one) and fails when
// that id was not free. Invalid events are skipped, as every entry point
// skips them.
func (m *Model) Apply(ev graph.Event, ids *[]NodeID) error {
	m.memo = nil
	if ev.TS != 0 {
		m.now = max(m.now, ev.TS)
	}
	u, w := ev.Node, ev.Peer
	switch ev.Kind {
	case graph.ContentWrite:
		if m.alive[u] {
			m.streams[u] = append(m.streams[u], write{ev.Value, ev.TS, m.seq, len(m.closes)})
			m.seq++
		}
	case graph.EdgeAdd:
		if m.alive[u] && m.alive[w] {
			m.link(u, w, true)
		}
	case graph.EdgeRemove:
		m.link(u, w, false)
	case graph.NodeAdd:
		id := m.next
		if n := len(m.free); n > 0 {
			id = m.free[n-1]
		}
		if ids != nil {
			if len(*ids) == 0 {
				return fmt.Errorf("the target reported fewer ids than the batch has NodeAdds")
			}
			id, *ids = (*ids)[0], (*ids)[1:]
		}
		if i := slices.Index(m.free, id); i >= 0 {
			m.free = slices.Delete(m.free, i, i+1)
		} else if id == m.next {
			m.next++
		} else {
			return fmt.Errorf("NodeAdd allocated node %d, which is not free", id)
		}
		m.alive[id] = true
	case graph.NodeRemove:
		if !m.alive[u] {
			return nil
		}
		for x := range m.out[u] {
			m.link(u, x, false)
		}
		for x := range m.in[u] {
			m.link(x, u, false)
		}
		delete(m.alive, u)
		delete(m.streams, u) // a reused id starts a fresh stream
		m.free = append(m.free, u)
	}
	return nil
}

// Close closes time at ts, expiring every time window to it, when ts passes
// the furthest close.
func (m *Model) Close(ts int64) {
	if ts > m.closed {
		m.memo = nil
		m.closed = ts
		m.closes = append(m.closes, ts)
	}
}

// Register starts query slot.
func (m *Model) Register(slot int, s Spec) {
	m.queries[slot] = s
	f := m.families[s.family()]
	if f == nil {
		f = &family{born: m.seq}
		m.families[s.family()] = f
	}
	f.members++
}

// Retire ends query slot; a family whose last member retires is gone.
func (m *Model) Retire(slot int) {
	s := m.queries[slot]
	delete(m.queries, slot)
	f := m.families[s.family()]
	if f.members--; f.members == 0 {
		delete(m.families, s.family())
		m.memo = nil
	}
}

// Query returns slot's spec, and whether the slot is live.
func (m *Model) Query(slot int) (Spec, bool) {
	s, ok := m.queries[slot]
	return s, ok
}

// Slots returns the live query slots in increasing order.
func (m *Model) Slots() []int { return slices.Sorted(maps.Keys(m.queries)) }

// Window recomputes u's in-window values for s from u's raw stream: the
// writes since s's family was born; for a tuple window the last c, for a
// time window what its FIFO slide keeps (each write first drops the values
// at or before its ts−T, each close those at or before the close−T).
func (m *Model) Window(u NodeID, s Spec) []int64 {
	key := [2]string{fmt.Sprint(u), s.family()}
	if vals, ok := m.memo[key]; ok {
		return vals
	}
	ws := m.streams[u]
	for born := m.families[key[1]].born; len(ws) > 0 && ws[0].seq < born; {
		ws = ws[1:]
	}
	q := ws[max(0, len(ws)-max(s.WindowTuples, 1)):]
	if T := s.WindowTime; T > 0 && len(ws) > 0 {
		q = nil
		slide := func(ts int64) {
			for cut := ts - T; cut <= ts && len(q) > 0 && q[0].ts <= cut; {
				q = q[1:]
			}
		}
		done := ws[0].closes
		for _, w := range ws {
			for ; done < w.closes; done++ {
				slide(m.closes[done])
			}
			slide(w.ts)
			q = append(q, w)
		}
		for ; done < len(m.closes); done++ {
			slide(m.closes[done])
		}
	}
	vals := make([]int64, len(q))
	for i, w := range q {
		vals[i] = w.v
	}
	if m.memo == nil {
		m.memo = map[[2]string][]int64{}
	}
	m.memo[key] = vals
	return vals
}

// Neighborhood returns N(v): at one hop the in-neighbors (v itself on a
// self-loop), else every other node that reaches v within hops.
func (m *Model) Neighborhood(v NodeID, hops int) []NodeID {
	if hops <= 1 {
		return slices.Sorted(maps.Keys(m.in[v]))
	}
	seen := map[NodeID]bool{v: true}
	var out []NodeID
	for h, frontier := 0, []NodeID{v}; h < hops; h++ {
		var next []NodeID
		for _, x := range frontier {
			for u := range m.in[x] {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		out, frontier = append(out, next...), next
	}
	return out
}

// Read recomputes query slot at v; ok is false for a dead node, where the
// target must answer ErrUnknownNode.
func (m *Model) Read(slot int, v NodeID) (r Result, ok bool) {
	if !m.alive[v] {
		return Result{}, false
	}
	return m.Eval(m.queries[slot], v), true
}

// Eval is the ego-centric aggregate s at live node v.
func (m *Model) Eval(s Spec, v NodeID) Result {
	if s.Topo() {
		return Result{Scalar: m.topo(s.Aggregate, v), Valid: true}
	}
	var vals []int64
	for _, u := range m.Neighborhood(v, s.Hops) {
		vals = append(vals, m.Window(u, s)...)
	}
	return Aggregate(s.Aggregate, vals)
}

// Aggregate is the named built-in aggregate over a multiset of values.
func Aggregate(name string, vals []int64) Result {
	n := int64(len(vals))
	var sum, sumSq int64
	count := map[int64]int{}
	for _, x := range vals {
		sum += x
		sumSq += x * x
		count[x]++
	}
	switch {
	case name == "count":
		return Result{Scalar: n, Valid: true}
	case name == "distinct":
		return Result{Scalar: int64(len(count)), Valid: true}
	case strings.HasPrefix(name, "topk("):
		k, _ := strconv.Atoi(strings.TrimSuffix(name[len("topk("):], ")"))
		top := slices.SortedFunc(maps.Keys(count), func(a, b int64) int {
			if count[a] != count[b] {
				return count[b] - count[a]
			}
			return int(a - b)
		})
		return Result{List: top[:min(max(k, 1), len(top))], Valid: n > 0}
	case n == 0:
		return Result{}
	case name == "avg":
		return Result{Scalar: sum / n, Valid: true}
	case name == "max":
		return Result{Scalar: slices.Max(vals), Valid: true}
	case name == "min":
		return Result{Scalar: slices.Min(vals), Valid: true}
	case name == "stddev":
		mean := float64(sum) / float64(n)
		return Result{Scalar: int64(math.Sqrt(max(float64(sumSq)/float64(n)-mean*mean, 0)) + 0.5), Valid: true}
	}
	return Result{Scalar: sum, Valid: true} // sum
}

// Undirected returns v's undirected neighbors, v excluded: the ego network
// the topology aggregates read.
func (m *Model) Undirected(v NodeID) map[NodeID]bool {
	n := map[NodeID]bool{}
	maps.Copy(n, m.out[v])
	maps.Copy(n, m.in[v])
	delete(n, v)
	return n
}

// topo recomputes a topology-valued aggregate at v.
func (m *Model) topo(name string, v NodeID) int64 {
	nb := slices.Sorted(maps.Keys(m.Undirected(v)))
	linked := func(a, b NodeID) bool { return m.out[a][b] || m.out[b][a] }
	k := int64(len(nb))
	var tri, eb int64
	for i, a := range nb {
		for _, b := range nb[i+1:] {
			if linked(a, b) {
				tri++
				continue
			}
			var c int64
			for _, x := range nb {
				if x != a && x != b && linked(a, x) && linked(b, x) {
					c++
				}
			}
			eb += Scale / (1 + c)
		}
	}
	switch name {
	case "triangles":
		return tri
	case "wedges":
		return k * (k - 1) / 2
	case "density":
		return tri * 2 * Scale / max(k*(k-1), 1)
	}
	return eb // ego-betweenness
}
