package eagr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/topo"
)

// standingView is the one seam under a Query handle: a compiled standing
// query that can be read, subscribed to, described and released. Every
// Query method is "closed? → delegate" onto it, so the handle never asks
// what kind of query it fronts. Two implementations exist — overlayView and
// structureView; a further query kind is one more implementation plus one
// case in Session.acquireView's name resolution.
//
// The exported methods are promoted straight from the backing
// *core.Attachment / *topo.View; the unexported ones need root-package types
// and live on the two adapters below. Views never free memory on release and
// keep no retirement flag of their own, so a reader that passed the handle's
// closed check just before Close still runs against consistent (merely
// retired) state.
type standingView interface {
	Read(v NodeID) (Result, error)
	ReadInto(v NodeID, res *Result) error
	ReadWire(v NodeID) (WirePAO, error)
	Covered(v NodeID) bool
	Subscribe(buffer int, nodes ...NodeID) (*exec.Subscription, error)
	// Unsubscribe must keep working after release: a cancel racing Close
	// may detach its subscription last.
	Unsubscribe(sub *exec.Subscription)

	// System is the compiled overlay behind the view, nil when there is none.
	System() *core.System

	// stats fills everything but DroppedUpdates, which the handle owns.
	stats() Stats
	sharing() (shared, family, ownReaders int)
	// release drops the view's reference on its shared compiled state. The
	// handle calls it exactly once.
	release() error
}

// overlayView is a query compiled into an aggregation overlay: one
// attachment to a (possibly merged, possibly shared) core.System, addressed
// through the attachment's member view. Both views go into the interface as
// pointers: the promoted-method wrappers of a pointer type are tail calls,
// where a value type's wrapper is one more frame under every Read (+15 ns on
// a 50 ns push read).
type overlayView struct{ *core.Attachment }

// newOverlayView compiles (or joins) the overlay for a numeric aggregate:
// identical configurations share one member outright, equal family keys
// merge into one overlay (see compatKey).
func (s *Session) newOverlayView(a agg.Aggregate, spec QuerySpec, o Options) (standingView, string, error) {
	q := core.Query{Aggregate: a, Continuous: spec.Continuous}
	switch {
	case spec.WindowTuples > 0:
		q.Window = agg.NewTupleWindow(spec.WindowTuples)
	case spec.WindowTime > 0:
		q.Window = agg.NewTimeWindow(spec.WindowTime)
	}
	if spec.Hops > 1 {
		q.Neighborhood = graph.KHopIn{K: spec.Hops}
	}
	if o.Neighborhood != nil {
		q.Neighborhood = o.Neighborhood
	}
	co := core.Options{
		Algorithm: o.Algorithm,
		Mode:      core.Mode(specOrDefault(o.Mode, string(core.ModeDataflow))),
		Construct: construct.Config{Iterations: o.Iterations},
	}
	full, fam := compatKey(spec, o)
	att, err := s.multi.AttachMerged(full, fam, q, co)
	if err != nil {
		return nil, "", err
	}
	return &overlayView{att}, full, nil
}

func (v *overlayView) stats() Stats {
	sys := v.System()
	if sys == nil { // detached by a Close racing the handle's closed check
		return Stats{}
	}
	st := sys.Stats()
	hits, misses := sys.Engine().PullMemoStats()
	return Stats{
		Writers:        st.Overlay.Writers,
		Readers:        st.Overlay.Readers,
		Partials:       st.Overlay.Partials,
		Edges:          st.Overlay.Edges,
		NegativeEdges:  st.Overlay.NegEdges,
		SharingIndex:   st.Overlay.SharingIndex,
		AvgDepth:       st.Overlay.AvgDepth,
		Algorithm:      st.Algorithm,
		Mode:           string(st.Mode),
		Maintainable:   st.Maintainable,
		Recompiles:     st.Recompiles,
		Shared:         v.Shared(),
		Family:         v.FamilySize(),
		OwnReaders:     v.OwnReaders(),
		Subscribers:    sys.Engine().Subscribers(),
		PullMemoHits:   hits,
		PullMemoMisses: misses,
	}
}

func (v *overlayView) sharing() (shared, family, ownReaders int) {
	return v.Shared(), v.FamilySize(), v.OwnReaders()
}

func (v *overlayView) release() error { return v.Detach() }

// structureView is a topology-valued query (internal/topo): an aggregate
// over the STRUCTURE of each node's 1-hop undirected ego network, fed by the
// graph's edge churn through the structural-listener hook instead of a
// compiled content overlay. Queries naming the same aggregate share one
// refcounted engine view, whatever their window — the topo form of
// compile-key sharing. Subscriptions deliver through the same bounded
// drop-oldest channel as overlay queries: each structural event delivers
// the refreshed value of every observed ego whose ego network it changed,
// at the event's ts.
type structureView struct {
	*topo.View
	sess *Session
	alg  string // Stats.Algorithm
}

// newStructureView validates spec against the topology aggregate's contract
// and acquires its shared engine view, creating the session's topo engine
// when this is the first live topology query. Every topology read is exact
// over the current structure, which has no timestamps to expire, so no
// aggregate takes a window — except that ego-betweenness still accepts a
// WindowTime, which changes no value and only enters the persisted key, so
// that registrations and durable logs from when it set a recompute cadence
// still load.
func (s *Session) newStructureView(ts topo.Spec, spec QuerySpec, o Options) (standingView, string, error) {
	if spec.WindowTuples > 0 {
		return nil, "", fmt.Errorf("eagr: %w: topology aggregate %q consumes edge churn, not content tuples — it takes no tuple window", ErrIncompatibleQuery, ts.Name)
	}
	if spec.Hops > 1 || o.Neighborhood != nil {
		return nil, "", fmt.Errorf("eagr: %w: topology aggregate %q is defined on the 1-hop undirected ego network; custom neighborhoods and hop depths do not apply", ErrIncompatibleQuery, ts.Name)
	}
	if spec.WindowTime > 0 && ts.Name != "ego-betweenness" {
		return nil, "", fmt.Errorf("eagr: %w: topology aggregate %q is exact over the current structure; it takes no time window", ErrIncompatibleQuery, ts.Name)
	}
	// topoMu spans engine lookup + Acquire here and Release + idle check in
	// release, so a registration can never acquire on an engine a concurrent
	// close is detaching.
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if s.topoEng == nil {
		// Construction runs under the structural mutation lock (the listener
		// attach hook), so the engine's bootstrap snapshot of the graph and
		// the event stream it observes afterwards are gap- and overlap-free.
		s.multi.AttachStructuralListener(func(g *graph.Graph) core.StructuralListener {
			s.topoEng = topo.NewEngine(g)
			return s.topoEng
		})
	}
	vw, err := s.topoEng.Acquire(ts, spec.WindowTime)
	if err != nil {
		s.dropIdleTopoEngine()
		return nil, "", fmt.Errorf("eagr: %w: %w", ErrIncompatibleQuery, err)
	}
	alg := "incremental" // the mirror keeps it exact on every edge event
	if ts.Name == "ego-betweenness" {
		alg = "on-read" // computed over the current ego network at each read
	}
	return &structureView{View: vw, sess: s, alg: alg}, ts.Key(spec.WindowTime), nil
}

// dropIdleTopoEngine detaches and forgets the topo engine once no view is
// live, so a session whose topology queries all retired stops paying for
// edge mirroring on every structural event; the next topology Register
// rebuilds it from the then-current graph. Callers hold topoMu.
func (s *Session) dropIdleTopoEngine() {
	if s.topoEng != nil && s.topoEng.Views() == 0 {
		s.multi.DetachStructuralListener(s.topoEng)
		s.topoEng = nil
	}
}

func (v *structureView) ReadInto(n NodeID, res *Result) error {
	r, err := v.Read(n)
	if err != nil {
		return err
	}
	*res = r
	return nil
}

// ReadWire has no topology form: values don't decompose into per-shard
// partials. With structure replicated to every shard (the sharding
// invariant), any single shard's Read already IS the exact answer.
func (v *structureView) ReadWire(NodeID) (WirePAO, error) {
	return WirePAO{}, fmt.Errorf("eagr: %w: topology-valued queries have no wire PAO; read the exact value from any shard", ErrIncompatibleQuery)
}

func (v *structureView) stats() Stats {
	return Stats{
		Algorithm:    v.alg,
		Mode:         "topo",
		Maintainable: true,
		Shared:       v.Refs(),
		Family:       1,
		Subscribers:  v.Subscribers(),
	}
}

func (v *structureView) sharing() (shared, family, ownReaders int) { return v.Refs(), 1, 0 }

func (v *structureView) System() *core.System { return nil }

func (v *structureView) release() error {
	s := v.sess
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	v.Release()
	s.dropIdleTopoEngine()
	return nil
}

// Query is the handle of one registered standing query: it carries the
// query's read surface (Read, ReadInto, Stats), its continuous-delivery
// surface (Subscribe), and its lifecycle (Close). Handles are safe for
// concurrent use.
type Query struct {
	sess *Session
	id   int
	spec QuerySpec
	// opts is the resolved compile configuration and fullKey its sharing
	// identity, retained so durable sessions can checkpoint the
	// registration; durable marks queries whose registration is in the
	// WAL (see Query.Durable).
	opts    Options
	fullKey string
	durable bool

	// view is the compiled standing query behind the handle; it outlives
	// Close (late cancels unsubscribe through it).
	view standingView
	// closed is the handle's one retirement flag: read lock-free by every
	// method before it delegates, set under mu so Subscribe's re-check and
	// Close's sweep of subs cannot miss each other.
	closed atomic.Bool

	mu      sync.Mutex
	subs    map[*exec.Subscription]struct{}
	retired int64 // dropped-update counts inherited from canceled subscriptions
}

// ID returns the session-unique query identifier (stable for the lifetime
// of the handle; used by the HTTP API's /queries/{id} routes).
func (q *Query) ID() int { return q.id }

// Spec returns the QuerySpec the query was registered with.
func (q *Query) Spec() QuerySpec { return q.spec }

// Read returns the current value of the standing query at v.
func (q *Query) Read(v NodeID) (Result, error) {
	if q.closed.Load() {
		return Result{}, ErrQueryClosed
	}
	return q.view.Read(v)
}

// ReadWire evaluates the standing query at v but stops before Finalize,
// returning the partial aggregate as a wire snapshot. A coordinator merges
// one snapshot per shard with agg.MergeWires to answer a cross-shard read;
// single-process callers should use Read. Topology-valued queries have no
// partial form and answer ErrIncompatibleQuery.
func (q *Query) ReadWire(v NodeID) (WirePAO, error) {
	if q.closed.Load() {
		return WirePAO{}, ErrQueryClosed
	}
	return q.view.ReadWire(v)
}

// Covered reports whether the standing query's result at v is
// push-maintained (pre-computed on every covering write) — exactly the
// nodes a Subscribe observes. Continuous queries compile all-push, so every
// node of theirs is covered; on a quasi-continuous query coverage reflects
// the optimizer's push/pull decisions and may change across Rebalance.
// Unknown nodes and closed queries report false.
func (q *Query) Covered(v NodeID) bool {
	return !q.closed.Load() && q.view.Covered(v)
}

// ReadInto evaluates the standing query at v into a caller-provided result.
// List-valued answers (TOP-K) reuse res.List's backing array when capacity
// allows, so a hot read loop that retains res allocates nothing; *res is
// overwritten on every call.
func (q *Query) ReadInto(v NodeID, res *Result) error {
	if q.closed.Load() {
		return ErrQueryClosed
	}
	return q.view.ReadInto(v, res)
}

// Subscribe registers a continuous listener on the query with a bounded
// buffer (buffer < 1 defaults to 16). With no nodes it covers every node
// of the query; otherwise only the standing queries at the given nodes.
//
// Updates {Node, Result, TS} are delivered from the engine's push path
// whenever a write (or window expiry) reaches a subscribed reader's ego
// network. Delivery never blocks ingestion: when the consumer falls behind
// the buffer, the oldest pending update is dropped and counted (see
// Stats.DroppedUpdates). The returned cancel is idempotent and closes the
// channel; Close cancels all of a query's subscriptions.
//
// Note that only push-maintained results notify. Continuous queries
// (QuerySpec.Continuous) compile all-push, so their coverage is complete;
// on a quasi-continuous query a subscription observes exactly the readers
// the optimizer chose to pre-compute.
func (q *Query) Subscribe(buffer int, nodes ...NodeID) (<-chan Update, func(), error) {
	if q.closed.Load() {
		return nil, nil, ErrQueryClosed
	}
	sub, err := q.view.Subscribe(buffer, nodes...)
	if err != nil {
		return nil, nil, err
	}
	q.mu.Lock()
	if q.closed.Load() {
		// Close swept subs before this one was indexed: detach it here.
		q.mu.Unlock()
		q.view.Unsubscribe(sub)
		return nil, nil, ErrQueryClosed
	}
	q.subs[sub] = struct{}{}
	q.mu.Unlock()
	cancel := func() { q.cancelSub(sub) }
	return sub.Updates(), cancel, nil
}

// cancelSub tears one subscription down, folding its drop count into the
// query's retired total.
func (q *Query) cancelSub(sub *exec.Subscription) {
	q.mu.Lock()
	if _, live := q.subs[sub]; !live {
		q.mu.Unlock()
		return
	}
	delete(q.subs, sub)
	q.mu.Unlock()
	q.view.Unsubscribe(sub)
	q.mu.Lock()
	q.retired += sub.Dropped()
	q.mu.Unlock()
}

// dropped returns the query's total dropped-update count (live + retired
// subscriptions).
func (q *Query) dropped() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	total := q.retired
	for sub := range q.subs {
		total += sub.Dropped()
	}
	return total
}

// Close retires the query: its subscriptions are canceled, its handle
// stops serving reads (ErrQueryClosed), and its reference on the shared
// compiled state is released — an overlay is torn down only when the last
// query sharing it closes, the topology engine only with its last view. On
// a durable session the retirement is logged, so the query stays gone after
// recovery. Closing an already-closed query returns ErrQueryClosed.
func (q *Query) Close() error {
	d := q.sess.dur
	if d == nil || !q.durable {
		return q.closeInner()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var werr error
	if !q.closed.Load() && !d.closed {
		if _, err := d.log.AppendRetire(uint64(q.id)); err != nil {
			// The WAL is poisoned; still retire the in-memory query. The
			// next recovery resurrects it — annoying, never incorrect.
			werr = fmt.Errorf("eagr: durable retire: %w", err)
		}
	}
	if err := q.closeInner(); err != nil {
		return err
	}
	return werr
}

// closeInner retires the query without touching the durability layer.
func (q *Query) closeInner() error {
	q.mu.Lock()
	if q.closed.Swap(true) {
		q.mu.Unlock()
		return ErrQueryClosed
	}
	subs := q.subs
	q.subs = nil
	q.mu.Unlock()

	var dropped int64
	for sub := range subs {
		q.view.Unsubscribe(sub)
		dropped += sub.Dropped()
	}
	q.mu.Lock()
	q.retired += dropped
	q.mu.Unlock()
	s := q.sess
	s.mu.Lock()
	delete(s.queries, q.id)
	s.mu.Unlock()
	return q.view.release()
}

// Stats summarizes a query's compiled overlay and runtime counters.
type Stats struct {
	Writers       int     `json:"writers"`
	Readers       int     `json:"readers"`
	Partials      int     `json:"partials"`
	Edges         int     `json:"edges"`
	NegativeEdges int     `json:"negativeEdges"`
	SharingIndex  float64 `json:"sharingIndex"`
	AvgDepth      float64 `json:"avgDepth"`
	Algorithm     string  `json:"algorithm"`
	Mode          string  `json:"mode"`
	Maintainable  bool    `json:"maintainable"`
	// Recompiles counts the structural changes (edge and node churn, family
	// members joining and leaving) that rebuilt the whole overlay because it
	// is not Maintainable in place — the slow path; 0 on a maintainable one.
	Recompiles int64 `json:"recompiles"`
	// Shared is the number of identically-configured queries (including
	// this one) sharing this query's compiled member for free.
	Shared int `json:"shared"`
	// Family is the number of distinct member queries (including this one)
	// merged into the compiled overlay these stats describe: Family > 1
	// means this query reads a per-query view of a MERGED overlay whose
	// partial aggregators are shared across members with different
	// neighborhoods or reader sets.
	Family int `json:"family"`
	// OwnReaders is the number of reader nodes this query's view owns in
	// the (possibly shared) overlay; Readers counts all members' readers.
	OwnReaders int `json:"ownReaders"`
	// Subscribers is the number of live subscriptions on the overlay's
	// engine; DroppedUpdates counts this query's discarded deliveries.
	Subscribers    int   `json:"subscribers"`
	DroppedUpdates int64 `json:"droppedUpdates"`
	// PullMemoHits and PullMemoMisses count the pull reads on the overlay's
	// engine that were answered from their reader's memo, and those that
	// computed the answer. Only TOP-K, DISTINCT and user aggregates memoize;
	// for the others both stay 0.
	PullMemoHits   int64 `json:"pullMemoHits"`
	PullMemoMisses int64 `json:"pullMemoMisses"`
}

// Stats returns current overlay and configuration statistics; the zero
// Stats after Close.
func (q *Query) Stats() Stats {
	if q.closed.Load() {
		return Stats{}
	}
	st := q.view.stats()
	st.DroppedUpdates = q.dropped()
	return st
}

// Sharing returns the query's sharing counters without walking the overlay
// for full statistics: how many identical registrations share its compiled
// member (shared), how many member queries its merge family hosts — itself
// included — on the shared overlay (family), and how many reader nodes its
// own view owns there (ownReaders). Zeros after Close.
func (q *Query) Sharing() (shared, family, ownReaders int) {
	if q.closed.Load() {
		return 0, 0, 0
	}
	return q.view.sharing()
}

// Internal exposes the query's underlying core system for advanced use
// (runners, benchmarks, custom cost models); nil after Close and for
// topology-valued queries, which compile no overlay.
func (q *Query) Internal() *core.System {
	if q.closed.Load() {
		return nil
	}
	return q.view.System()
}
