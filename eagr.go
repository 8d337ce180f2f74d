// Package eagr is a Go implementation of EAGr (Mondal & Deshpande, SIGMOD
// 2014): a system for supporting large numbers of continuous and
// quasi-continuous ego-centric aggregate queries over large, dynamic
// graphs.
//
// An ego-centric aggregate query ⟨F, w, N, pred⟩ continuously computes, for
// every graph node v with pred(v), the aggregate F over the sliding window
// w of the content streams of v's neighborhood N(v). EAGr compiles such a
// query into an aggregation overlay graph — a DAG of writers, partial
// aggregators and readers that shares partial aggregates across queries —
// and annotates every overlay node with a push (incrementally maintained)
// or pull (computed on demand) decision chosen optimally by a max-flow
// computation over expected read/write frequencies.
//
// The public API is organized around multi-query Sessions: one Session
// hosts any number of standing queries over one shared dynamic graph, the
// paper's unit of optimization. Queries with identical configuration share
// one compiled overlay outright, and queries with the same
// aggregate/window semantics but different neighborhoods, hop depths or
// reader sets are compiled together into ONE merged overlay over the union
// of their query sets (a "merge family") — partial aggregators shared
// wherever neighborhoods overlap, with each query reading its own
// per-query view. Incompatible queries run side by side over the same
// graph.
//
// Basic usage:
//
//	g := eagr.NewGraph(n)             // build the data graph
//	g.AddEdge(u, v)                   // v's ego network gains u
//	sess, err := eagr.Open(g)         // a multi-query session
//	sums, err := sess.Register(eagr.QuerySpec{Aggregate: "sum"})
//	sess.Write(u, 42, ts)             // content update, fans out to all queries
//	res, err := sums.Read(v)          // F(N(v)) right now, for this query
//
// Data enters as ONE interleaved stream, the paper's model (§2.1): content
// writes and structural changes in stream order. The streaming front door
// is an Ingestor — batched, backpressured, and the source of time:
//
//	ing, err := sess.Ingest(eagr.IngestOptions{})
//	ing.Send(u, 42)                            // auto-timestamped write
//	ing.SendEvent(eagr.NewEdgeAdd(u, v, 0))    // structural, same stream
//	ing.Flush()                                // synchronize when needed
//
// Batches auto-flush by size and interval; consecutive content writes
// apply with one coalesced notification per touched reader per batch, on
// the goroutine whose send filled the batch (no apply goroutine to hand
// off to), while consecutive structural events coalesce into one overlay
// repair per query (Session.ApplyBatch is the same unified path for
// caller-assembled batches). The low watermark — the session's maximum
// applied timestamp — expires time-based windows automatically, each batch
// closing its own time in the same transaction, so time-windowed queries
// advance with the stream instead of with hand-threaded ExpireAll calls.
//
// Continuous queries push results to subscribers instead of waiting to be
// read, including the expiry updates the watermark produces:
//
//	alerts, _ := sess.Register(eagr.QuerySpec{Aggregate: "count", Continuous: true})
//	ch, cancel, err := alerts.Subscribe(64)
//	for u := range ch { ... }        // {Node, Result, TS} on every relevant write
//
// See the examples directory for complete programs and DESIGN.md for the
// mapping from the paper's sections to packages.
package eagr

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/topo"
)

// NodeID identifies a node in the data graph.
type NodeID = graph.NodeID

// Result is a finalized aggregate answer.
type Result = agg.Result

// Graph is the dynamic data graph G(V,E).
type Graph = graph.Graph

// NewGraph returns a graph pre-populated with nodes 0..n-1.
func NewGraph(n int) *Graph { return graph.NewWithNodes(n) }

// Aggregate is the user-defined aggregate interface (paper §2.2.3); see
// RegisterAggregate for installing custom aggregates.
type Aggregate = agg.Aggregate

// PAO is the partial aggregate object maintained at overlay nodes.
type PAO = agg.PAO

// Properties describe an aggregate's algebraic structure (which overlay
// optimizations are legal for it).
type Properties = agg.Properties

// WirePAO is a flat, JSON-serializable snapshot of one partial aggregate —
// the unit a sharded deployment ships from shards to a coordinator (see
// Query.ReadWire and internal/shard).
type WirePAO = agg.WirePAO

// RegisterAggregate installs a user-defined aggregate under the given name
// so QuerySpec.Aggregate can refer to it.
func RegisterAggregate(name string, factory func(param int) Aggregate) {
	agg.Register(name, agg.Factory(factory))
}

// Neighborhood is the neighborhood selection function N of a query; use
// KHop or Filtered for the built-in shapes, or implement the interface for
// custom ego networks.
type Neighborhood = graph.Neighborhood

// KHop returns the neighborhood of nodes that reach v within k hops
// (k=1 gives the in-neighbors of the running example).
func KHop(k int) Neighborhood {
	if k <= 1 {
		return graph.InNeighbors{}
	}
	return graph.KHopIn{K: k}
}

// Filtered restricts a base neighborhood to the candidates accepted by
// keep — the paper's "filtering neighborhoods" (e.g. only geographically
// close neighbors in a spatio-temporal network). The tag identifies the
// filter: queries registered on one Session share compiled state only when
// their tags (and the rest of their configuration) match, so distinct
// filters need distinct tags.
func Filtered(base Neighborhood, keep func(g *Graph, center, candidate NodeID) bool, tag string) Neighborhood {
	return graph.Filtered{Base: base, Keep: keep, Tag: tag}
}

// Typed errors returned at the API boundary. Use errors.Is; the concrete
// messages carry context (which node, which query).
var (
	// ErrUnknownNode reports an operation on a node the session's graph or
	// a query's overlay does not know (never added, or already removed).
	ErrUnknownNode = exec.ErrUnknownNode
	// ErrQueryClosed reports an operation on a retired query handle.
	ErrQueryClosed = errors.New("eagr: query closed")
	// ErrIncompatibleQuery reports a QuerySpec/Options combination that
	// cannot be compiled (unknown aggregate, or an overlay algorithm whose
	// correctness precondition the aggregate does not meet).
	ErrIncompatibleQuery = core.ErrIncompatible
	// ErrIncompatibleMerge reports a query that could not be merged into
	// (or retired from) a merge family's shared overlay. It wraps
	// ErrIncompatibleQuery, so errors.Is on either matches.
	ErrIncompatibleMerge = core.ErrIncompatibleMerge
	// ErrConflictingWindow reports a QuerySpec that sets both WindowTuples
	// and WindowTime; a query has exactly one window.
	ErrConflictingWindow = errors.New("eagr: QuerySpec sets both WindowTuples and WindowTime")
)

// QuerySpec describes an ego-centric aggregate query in plain values; it is
// resolved into a compiled query by Session.Register.
type QuerySpec struct {
	// Aggregate names the aggregate function: "sum", "count", "avg",
	// "max", "min", "distinct", "topk(k)", or a registered custom name.
	Aggregate string
	// WindowTuples > 0 selects a count-based window of that many values
	// per writer; WindowTime > 0 selects a time-based window. Both zero
	// means most-recent-value (c = 1); setting both is ErrConflictingWindow.
	WindowTuples int
	WindowTime   int64
	// Hops selects the neighborhood: 1 (default) aggregates over 1-hop
	// in-neighbors, 2 over 2-hop in-neighborhoods, etc.
	Hops int
	// Continuous requests continuous rather than quasi-continuous
	// semantics (results maintained on every update); continuous queries
	// compile all-push, so Query.Subscribe covers every reader.
	Continuous bool
}

// Options tune compilation; the zero value picks sensible defaults
// (automatic overlay algorithm, optimal dataflow decisions, uniform 1:1
// workload estimate). Options passed to Open become the session default;
// Options passed to Register override them for that query.
type Options struct {
	// Algorithm: "vnm", "vnma", "vnmn", "vnmd", "iob", "baseline", or ""
	// for automatic selection.
	Algorithm string
	// Mode: "dataflow" (optimal, default), "all-push" or "all-pull";
	// anything else is ErrIncompatibleQuery.
	Mode string
	// Iterations for overlay construction (default 10).
	Iterations int
	// Neighborhood overrides QuerySpec.Hops with a custom neighborhood
	// function (e.g. a Filtered neighborhood).
	Neighborhood Neighborhood
}

// Update is one continuous-query delivery: the standing query at Node
// changed to Result because of a write with timestamp TS somewhere in
// Node's ego network. See Query.Subscribe.
type Update = exec.Update

// Session hosts any number of standing ego-centric aggregate queries over
// one shared dynamic graph. Register adds queries at runtime and Query
// handles retire them; content writes fan out to every registered query,
// and structural changes mutate the graph once and repair every query's
// overlay incrementally.
//
// All methods are safe for concurrent use.
type Session struct {
	g        *Graph
	defaults Options
	multi    *core.MultiSystem
	// dur is the durability layer, nil unless the session came from
	// OpenDurable; the mutators check it with one nil test, so the
	// durability-off hot paths stay allocation-free.
	dur *durableState
	// tunerStop and tunerDone belong to the autotune loop (EnableAutotune),
	// nil while it is off; tunerMu guards them. The write/read hot paths
	// never touch the loop; it runs Rebalance from its own goroutine.
	tunerMu              sync.Mutex
	tunerStop, tunerDone chan struct{}
	// witness is nil unless a test sets it before any traffic: then every
	// batch an Ingestor applies (events) and every Rebalance pass (nil)
	// runs inside it, so the test sees the order they took effect in.
	witness func(events []Event, run func() error) error

	// maxTS and lastExpire are the session's stream time: the largest
	// non-zero timestamp any applied batch carried and the furthest any
	// advance closed time (MinInt64 = none yet). apply folds every batch
	// into them, durable or not; an Ingestor starts from them and a
	// checkpoint persists them.
	maxTS      atomic.Int64
	lastExpire atomic.Int64

	// topoEng hosts the session's topology-valued views (internal/topo). It
	// exists, attached to the graph's structural-mutation path as a
	// listener, exactly while a topology query is live (see
	// newStructureView / dropIdleTopoEngine). Content writes never touch it
	// — the listener hook fires on structural events and watermark advances
	// only — so sessions without topo queries (and content-only batches in
	// sessions with them) pay nothing.
	topoMu  sync.Mutex
	topoEng *topo.Engine

	mu      sync.Mutex
	queries map[int]*Query
	nextID  int
}

// Open starts a multi-query session over g. The graph is retained (not
// copied); all structural changes must go through the Session's mutation
// methods. An optional Options value becomes the default compile
// configuration for Register.
func Open(g *Graph, opts ...Options) (*Session, error) {
	var o Options
	if len(opts) > 1 {
		return nil, fmt.Errorf("eagr: at most one Options value")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	s := &Session{
		g:        g,
		defaults: o,
		multi:    core.NewMulti(g),
		queries:  map[int]*Query{},
	}
	s.maxTS.Store(math.MinInt64)
	s.lastExpire.Store(math.MinInt64)
	return s, nil
}

// EnableAutotune starts the session's autotune loop: a goroutine that runs
// Rebalance every 2s, so the §4.8 frontier flips whose filled observation
// window contradicts the running decisions apply without a caller. It never
// moves a reader of a fixed-mode (all-push or all-pull; every Continuous
// query is all-push) overlay; reads never pause, writes wait for the
// engine's install step only. A no-op while the loop runs; it runs until
// StopAutotune.
func (s *Session) EnableAutotune() { s.enableAutotune(2 * time.Second) }

// enableAutotune is EnableAutotune with the loop's interval spelled out;
// tests shorten it.
func (s *Session) enableAutotune(every time.Duration) {
	s.tunerMu.Lock()
	defer s.tunerMu.Unlock()
	if s.tunerStop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	s.tunerStop, s.tunerDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = s.Rebalance()
			}
		}
	}()
}

// StopAutotune halts the autotune loop and waits for an in-flight pass to
// finish. Idempotent, and a no-op when the loop never ran. The adaptivity
// counters in SessionStats keep what the loop did, and EnableAutotune can
// restart it.
func (s *Session) StopAutotune() {
	s.tunerMu.Lock()
	stop, done := s.tunerStop, s.tunerDone
	s.tunerStop, s.tunerDone = nil, nil
	s.tunerMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Register compiles spec into a standing query and returns its handle. An
// optional Options value overrides the session defaults for this query.
//
// Queries with identical configuration (same aggregate, window,
// neighborhood and compile options) share one compiled overlay — and its
// partial aggregators — per the paper's sharing construction; the second
// registration of such a query is free. Queries that differ ONLY in their
// neighborhood (hop depth, tagged filter) join the same merge family: the
// family's queries compile into one merged overlay over the union of their
// query sets, sharing partial aggregation work wherever their
// neighborhoods overlap, while this handle reads exactly its own query's
// view. Registering into an existing family extends the merged overlay
// online (reads never pause; writes wait for the install step only).
// Incompatible queries compile their own
// overlay over the same graph.
func (s *Session) Register(spec QuerySpec, opts ...Options) (*Query, error) {
	o := s.defaults
	if len(opts) > 1 {
		return nil, fmt.Errorf("eagr: at most one Options value")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	d := s.dur
	if d == nil {
		return s.register(spec, o, 0)
	}
	// Durable path: registration must order exactly against logged batches,
	// so it holds the full durability lock across compile + WAL append.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrDurabilityClosed
	}
	q, err := s.register(spec, o, 0)
	if err != nil {
		return nil, err
	}
	blob, serializable := encodeQueryRecord(q.id, spec, o)
	if !serializable {
		// Non-serializable options (a custom Neighborhood): the query
		// runs but does not survive recovery.
		return q, nil
	}
	if _, err := d.log.AppendRegister(uint64(q.id), blob); err != nil {
		_ = q.closeInner()
		return nil, fmt.Errorf("eagr: durable register: %w", err)
	}
	q.durable = true
	return q, nil
}

// register is the one registration path (Register, recovery replay):
// validate → acquire a standing view → allocate the id, build the handle and
// index it. forcedID > 0 restores a recovered query under its original id;
// 0 allocates the next one.
func (s *Session) register(spec QuerySpec, o Options, forcedID int) (*Query, error) {
	if spec.WindowTuples > 0 && spec.WindowTime > 0 {
		return nil, ErrConflictingWindow
	}
	view, fullKey, err := s.acquireView(spec, o)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := forcedID
	if id <= 0 {
		s.nextID++
		id = s.nextID
	} else if id > s.nextID {
		s.nextID = id
	}
	h := &Query{
		sess:    s,
		id:      id,
		spec:    spec,
		opts:    o,
		fullKey: fullKey,
		view:    view,
		subs:    map[*exec.Subscription]struct{}{},
	}
	s.queries[id] = h
	return h, nil
}

// acquireView resolves the aggregate name to a query kind — the only place
// that knows there is more than one — and returns that kind's standing view
// with its sharing key. The aggregate registry wins on a name collision
// with the fixed topology table, preserving the behavior of custom
// aggregates registered before topology-valued aggregates (density,
// triangles, ego-betweenness, ...) existed.
func (s *Session) acquireView(spec QuerySpec, o Options) (standingView, string, error) {
	name := specOrDefault(spec.Aggregate, "sum")
	a, err := agg.Parse(name)
	if err == nil {
		return s.newOverlayView(a, spec, o)
	}
	if ts, terr := topo.Parse(name); terr == nil {
		return s.newStructureView(ts, spec, o)
	}
	return nil, "", fmt.Errorf("eagr: %w: %w", ErrIncompatibleQuery, err)
}

// TopoScale is the fixed-point scale for fractional topology values:
// a Result.Scalar of TopoScale reads as 1.0 (density of a perfect clique,
// one unit of ego-betweenness).
const TopoScale = topo.Scale

// compatKey canonicalizes a query's compile configuration into two sharing
// keys. full is the complete configuration: equal full keys share one
// compiled member outright (the Nth identical registration is free). family
// is everything EXCEPT the neighborhood/reader set — aggregate, window,
// continuity, algorithm, mode, construction knobs: queries with equal
// non-empty family keys but different neighborhoods or hop depths compile
// into ONE merged overlay over the union of their query sets, each reading
// its own per-query view (the paper's cross-query sharing).
//
// Spellings that compile identically map to one key (WindowTuples 0 ≡ 1,
// Hops 0 ≡ 1, empty mode ≡ "dataflow", zero iterations ≡ the construct
// default). Empty keys mean "never share": neighborhoods without a stable
// identity opt out of both levels.
func compatKey(spec QuerySpec, o Options) (full, family string) {
	// Canonical neighborhood identity: Options.Neighborhood overrides
	// spec.Hops exactly as Register does, so QuerySpec{Hops: 2} and
	// Options{Neighborhood: KHop(2)} produce the same key.
	hops := spec.Hops
	if hops < 1 {
		hops = 1
	}
	nbr := fmt.Sprintf("in-%dhop", hops)
	if o.Neighborhood != nil {
		key, ok := graph.NeighborhoodKey(o.Neighborhood)
		if !ok {
			return "", ""
		}
		nbr = key
	}
	wc := spec.WindowTuples
	if spec.WindowTime == 0 && wc == 0 {
		wc = 1 // both-zero means most-recent-value: a c=1 tuple window
	}
	it := o.Iterations
	if it <= 0 {
		it = 10 // construct.Config's default
	}
	mode := specOrDefault(o.Mode, string(core.ModeDataflow))
	if spec.Continuous {
		// Compile forces all-push for continuous queries regardless of
		// the requested mode; the key must agree or identically-compiled
		// continuous queries would not share.
		mode = string(core.ModeAllPush)
	}
	// The constant "|split=false|mrc=0" segment names two options that no
	// longer exist; it stays because the full key is persisted as every
	// checkpoint's window-group key.
	family = fmt.Sprintf("agg=%s|wc=%d|wt=%d|cont=%t|alg=%s|mode=%s|it=%d|split=false|mrc=0",
		specOrDefault(spec.Aggregate, "sum"), wc, spec.WindowTime,
		spec.Continuous, o.Algorithm, mode, it)
	return family + "|nbr=" + nbr, family
}

func specOrDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Write ingests a content update (a write on v) with a caller-supplied
// timestamp (used by time-based windows), fanning it out to every
// registered query.
func (s *Session) Write(v NodeID, value int64, ts int64) error {
	ev := [1]Event{NewWrite(v, value, ts)}
	_, err := s.apply(ev[:], graph.NoAdvance, false)
	return err
}

// Event is a single element of the combined data stream (§2.1): one
// interleaved sequence of content writes and structural changes, ingested
// with ApplyBatch or an Ingestor.
type Event = graph.Event

// NewWrite builds a content-write event: node v appends value to its
// content stream at ts.
func NewWrite(v NodeID, value int64, ts int64) Event {
	return graph.Event{Kind: graph.ContentWrite, Node: v, Value: value, TS: ts}
}

// NewEdgeAdd builds a structural event adding the edge u→v (v's ego
// network gains u under the default neighborhood).
func NewEdgeAdd(u, v NodeID, ts int64) Event {
	return graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: v, TS: ts}
}

// NewEdgeRemove builds a structural event removing the edge u→v.
func NewEdgeRemove(u, v NodeID, ts int64) Event {
	return graph.Event{Kind: graph.EdgeRemove, Node: u, Peer: v, TS: ts}
}

// NewNodeAdd builds a structural event allocating a fresh node (the id is
// assigned at apply time; deleted ids are reused).
func NewNodeAdd(ts int64) Event {
	return graph.Event{Kind: graph.NodeAdd, TS: ts}
}

// NewNodeRemove builds a structural event deleting node v and its edges.
func NewNodeRemove(v NodeID, ts int64) Event {
	return graph.Event{Kind: graph.NodeRemove, Node: v, TS: ts}
}

// apply is the one path every mutation of content, structure or time takes
// from the public API to the engines: a batch of events and the watermark
// the batch closes (graph.NoAdvance = it closes no time). Write, ApplyBatch,
// ApplyBatchNodes, the four structural mutators, ExpireAll (no
// events), the Ingestor's apply stage and recovery's replay are all views of
// it. With ownTime set (the Ingestor's batches) the batch closes its own
// time instead of advanceTo: the advance is the session's stream time with
// the batch folded in, when that passes the furthest time already closed.
// It owns the only durability fork — on a durable session the batch and
// its advance are WAL-appended together and then applied under one hold of
// the durability read lock (so a checkpoint never observes a half-applied
// batch, and acknowledged implies durable under FsyncPerBatch), otherwise
// they go straight to the shared apply loop — and a batch the log refuses
// applies nothing and moves no time. Expiry is LOGGED, not recomputed at
// recovery: replay reproduces exactly the advances that ran, independent of
// whatever Ingestor exists after restart. Every batch that is not refused
// folds into the session's stream time: its timestamps into maxTS (zero
// timestamps are the "unstamped" sentinel and don't count), its advance
// into lastExpire. It returns the node ids the batch's NodeAdd events
// allocated.
func (s *Session) apply(events []Event, advanceTo int64, ownTime bool) ([]NodeID, error) {
	batchMax := int64(math.MinInt64)
	for _, ev := range events {
		if ev.TS != 0 && ev.TS > batchMax {
			batchMax = ev.TS
		}
	}
	if ownTime {
		if t := max(s.maxTS.Load(), batchMax); t > s.lastExpire.Load() {
			advanceTo = t
		}
	}
	if d := s.dur; d != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
		if d.closed {
			return nil, ErrDurabilityClosed
		}
		if _, _, err := d.log.Append(events, advanceTo); err != nil {
			return nil, fmt.Errorf("eagr: wal append: %w", err)
		}
	}
	casMax(&s.maxTS, batchMax)
	casMax(&s.lastExpire, advanceTo)
	added, err := s.multi.Apply(events, advanceTo)
	return added, mapNodeErr(err)
}

// casMax advances a to at least v.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ApplyBatch ingests a mixed batch of content and structural events in
// stream order — the paper's single interleaved data stream. Runs of
// consecutive content writes apply serially on the calling goroutine with
// subscription fan-out coalesced per run (each touched reader is notified
// once); runs of consecutive structural events mutate the graph event by
// event but coalesce into ONE overlay repair and engine republish per
// query, so a burst of churn costs one repair rather than one per event.
// ApplyBatch never spawns goroutines and neither does the Ingestor, whose
// apply stage is this method called on whichever sender's goroutine hands
// a batch over: multi-core content ingest is concurrent callers — every
// mutator is safe to call from many goroutines.
//
// Events that cannot apply (adding an existing edge, removing a dead node)
// are skipped with their errors joined into the returned error; the rest
// of the batch still applies — the same end state as looping the
// sequential mutators and collecting errors. The final results are
// identical to applying the batch one event at a time.
func (s *Session) ApplyBatch(events []Event) error {
	_, err := s.apply(events, graph.NoAdvance, false)
	return err
}

// ApplyBatchNodes is ApplyBatch additionally returning the node ids its
// NodeAdd events allocated, in event order. Deleted ids are reused, so a
// caller that needs to write to (or wire edges onto) a node it just
// streamed in cannot derive the id from the graph size — use this variant,
// or the synchronous AddNode. (The asynchronous Ingestor cannot return
// per-event ids; streams that create nodes and immediately address them
// should allocate through ApplyBatchNodes or AddNode first.)
func (s *Session) ApplyBatchNodes(events []Event) ([]NodeID, error) {
	return s.apply(events, graph.NoAdvance, false)
}

// ExpireAll advances every query's time-based windows to ts, propagating
// expirations (and subscriber notifications) through the push regions: a
// batch of no events that closes time at ts, down the same path as every
// other mutation. Sessions ingesting through an Ingestor don't call this —
// each acknowledged batch carries its own watermark advance; it is for
// callers that own time themselves (IngestOptions.DisableAutoExpire: a
// sharded fleet's coordinator closes time on every shard at its own stream
// time).
//
// On a durable session the advance is logged first, like the events it
// would otherwise ride with: an advance the log refuses is not applied, and
// the error says so.
func (s *Session) ExpireAll(ts int64) error {
	_, err := s.apply(nil, ts, false)
	return err
}

// AddEdge applies a structural edge addition u→v (v's ego network gains u
// under the default neighborhood) and incrementally repairs every query's
// overlay.
func (s *Session) AddEdge(u, v NodeID) error {
	_, err := s.apply([]Event{NewEdgeAdd(u, v, 0)}, graph.NoAdvance, false)
	return err
}

// RemoveEdge applies a structural edge deletion.
func (s *Session) RemoveEdge(u, v NodeID) error {
	_, err := s.apply([]Event{NewEdgeRemove(u, v, 0)}, graph.NoAdvance, false)
	return err
}

// AddNode adds a fresh node to the data graph and every query's overlay.
// (On a durable session replay allocates the same id: the checkpointed
// graph carries its free list, and NodeAdd events apply in log order.)
func (s *Session) AddNode() (NodeID, error) {
	added, err := s.apply([]Event{NewNodeAdd(0)}, graph.NoAdvance, false)
	if len(added) == 0 {
		return 0, err
	}
	return added[0], err
}

// RemoveNode deletes a node and its edges everywhere.
func (s *Session) RemoveNode(v NodeID) error {
	_, err := s.apply([]Event{NewNodeRemove(v, 0)}, graph.NoAdvance, false)
	return err
}

// mapNodeErr converts the graph package's not-found errors into the
// API-boundary typed error, preserving the original context.
func mapNodeErr(err error) error {
	if err != nil && errors.Is(err, graph.ErrNodeNotFound) {
		return fmt.Errorf("eagr: %w: %w", ErrUnknownNode, err)
	}
	return err
}

// Rebalance applies the adaptive dataflow scheme (§4.8) to every query
// using the activity observed since the last pass that flipped a decision
// (a pass that flips nothing keeps its counts), returning the total
// number of decision flips. Concurrent traffic keeps flowing: reads never
// pause; writes wait only for the install step of an overlay whose
// decisions flipped (Stats().Adaptivity.LastInstallHoldMicros).
func (s *Session) Rebalance() (flips int, err error) {
	if s.witness == nil {
		return s.multi.Rebalance()
	}
	err = s.witness(nil, func() error { flips, err = s.multi.Rebalance(); return err })
	return flips, err
}

// Graph returns the session's shared data graph. Mutate it only through
// the Session's structural methods.
func (s *Session) Graph() *Graph { return s.g }

// Defaults returns the session's default compile Options (the value passed
// to Open). Callers that accept partial per-query overrides should merge
// them over this value before Register, so equivalent queries keep equal
// configurations and share compiled state.
func (s *Session) Defaults() Options { return s.defaults }

// Queries returns the live query handles, ordered by registration.
func (s *Session) Queries() []*Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Query returns the live handle with the given ID, or nil.
func (s *Session) Query(id int) *Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries[id]
}

// SessionStats summarizes a session: how many queries it hosts, how many
// compiled overlays they share (Groups < Queries means partial-aggregate
// sharing is active), and the overlay totals across all groups.
type SessionStats struct {
	Queries int `json:"queries"`
	// Groups is the number of distinct compiled overlays; queries in one
	// group share all partial aggregators.
	Groups int `json:"groups"`
	// MergedFamilies counts the overlays hosting more than one member
	// query (the merged multi-query overlays), and MergedQueries the
	// member queries they host: sharing beyond exact configuration twins.
	MergedFamilies int `json:"mergedFamilies"`
	MergedQueries  int `json:"mergedQueries"`
	// FamilyOverflows counts registrations that found their merge family at
	// the 64-member tag-space cap and opened a fresh overlay instead of
	// joining the shared one — nonzero means cross-query sharing is
	// degrading under query volume.
	FamilyOverflows int64 `json:"familyOverflows"`
	// OverlaysMined counts the overlay constructions the session has run (at
	// registration and on every recompile); OverlaysCloned the ones it did
	// not have to, because a query of the same shape — neighborhood,
	// construction algorithm and knobs, whatever the aggregate — had its
	// overlay mined on the same graph structure and that was copied.
	OverlaysMined  int64 `json:"overlaysMined"`
	OverlaysCloned int64 `json:"overlaysCloned"`
	Writers        int   `json:"writers"`
	Readers        int   `json:"readers"`
	Partials       int   `json:"partials"`
	Edges          int   `json:"edges"`
	// DroppedUpdates counts subscription deliveries discarded because
	// consumers fell behind, summed over all live queries.
	DroppedUpdates int64 `json:"droppedUpdates"`
	// TopoViews is the number of live topology-valued views (internal/topo)
	// the session's topo queries share; 0 when no topo query is registered.
	TopoViews int `json:"topoViews"`
	// Adaptivity is the session's live adaptivity state — observation,
	// rebalance and flip totals — fed by every Rebalance pass, whether
	// POST /rebalance, Session.Rebalance or the autotune loop ran it.
	Adaptivity AdaptivityStats `json:"adaptivity"`
	// Autotune reports whether the autotune loop runs (EnableAutotune); left
	// out of JSON when it does not.
	Autotune bool `json:"autotune,omitempty"`
}

// AdaptivityStats aggregates the adaptivity telemetry of every compiled
// overlay in the session: Session.Stats sums the overlays' counters and
// reports the newest LastRebalanceNano and the longest LastInstallHoldMicros.
type AdaptivityStats = core.AdaptivityStats

// Stats returns current session-wide statistics.
func (s *Session) Stats() SessionStats {
	st := SessionStats{
		Groups:          s.multi.NumGroups(),
		FamilyOverflows: s.multi.FamilyOverflows(),
		OverlaysMined:   s.multi.OverlaysMined(),
		OverlaysCloned:  s.multi.OverlaysCloned(),
	}
	st.MergedFamilies, st.MergedQueries = s.multi.NumMergedFamilies()
	for _, sys := range s.multi.Systems() {
		ov := sys.Stats().Overlay
		st.Writers += ov.Writers
		st.Readers += ov.Readers
		st.Partials += ov.Partials
		st.Edges += ov.Edges
		ad := sys.AdaptivityStats()
		st.Adaptivity.PushObserved += ad.PushObserved
		st.Adaptivity.PullObserved += ad.PullObserved
		st.Adaptivity.Rebalances += ad.Rebalances
		st.Adaptivity.Flips += ad.Flips
		st.Adaptivity.LastRebalanceNano = max(st.Adaptivity.LastRebalanceNano, ad.LastRebalanceNano)
		st.Adaptivity.Installs += ad.Installs
		st.Adaptivity.LastInstallHoldMicros = max(st.Adaptivity.LastInstallHoldMicros, ad.LastInstallHoldMicros)
	}
	s.tunerMu.Lock()
	st.Autotune = s.tunerStop != nil
	s.tunerMu.Unlock()
	s.topoMu.Lock()
	if s.topoEng != nil {
		st.TopoViews = s.topoEng.Views()
	}
	s.topoMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Queries = len(s.queries)
	for _, q := range s.queries {
		st.DroppedUpdates += q.dropped()
	}
	return st
}
