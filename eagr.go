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
// caller-assembled batches). The Ingestor's low watermark
// — max observed timestamp minus the configured lateness — expires
// time-based windows automatically, so time-windowed queries advance with
// the stream instead of with hand-threaded ExpireAll calls.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/autotune"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dataflow"
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
	// Mode: "dataflow" (optimal, default), "greedy", "all-push",
	// "all-pull".
	Mode string
	// Iterations for overlay construction (default 10).
	Iterations int
	// SplitNodes enables partial pre-computation by node splitting.
	SplitNodes bool
	// ReadFreq/WriteFreq, when non-nil, give expected per-node read and
	// write frequencies for the dataflow decisions. Queries with explicit
	// frequencies never share compiled state.
	ReadFreq, WriteFreq []float64
	// Neighborhood overrides QuerySpec.Hops with a custom neighborhood
	// function (e.g. a Filtered neighborhood).
	Neighborhood Neighborhood
	// MaxReadCost, when positive, bounds every reader's estimated
	// on-demand read cost (in cost-model units); pull subtrees over the
	// bound are pre-computed instead.
	MaxReadCost float64
	// Autotune, when non-nil, starts the session's self-driving adaptivity
	// controller (see AutotuneOptions and WithAutotune). It is a
	// session-level setting: only the Options value passed to Open (or
	// OpenDurable) is consulted, never per-Register overrides, and it has
	// no effect on query sharing keys.
	Autotune *AutotuneOptions
}

// AutotuneOptions configure the background adaptivity controller: a
// per-session goroutine that samples the engines' live push/pull
// observations into a decayed workload estimate and re-optimizes running
// overlays online — incremental frontier flips, cold-view demotion in
// merged families, and full re-plan cutovers when the observed-workload
// cost of the current decisions degrades past a threshold. All actions ride
// the online resync: ingestion and reads never pause. Zero fields take
// documented defaults.
type AutotuneOptions struct {
	// Interval is the controller's sampling period (default 2s).
	Interval time.Duration
	// Decay is the per-tick retention of the workload estimate in [0,1)
	// (default 0.5; higher remembers longer).
	Decay float64
	// MinActivity is the decayed observation count required before the
	// controller retargets views or re-plans (default 256).
	MinActivity float64
	// ColdFactor/HotFactor bound the view hysteresis band as fractions of
	// the mean per-view read rate (defaults 0.1 and 0.5): a push view
	// colder than ColdFactor×mean demotes to pull, a demoted view hotter
	// than HotFactor×mean promotes back.
	ColdFactor, HotFactor float64
	// DegradationRatio triggers a full re-plan cutover when the current
	// decisions cost more than this multiple of a fresh plan under the
	// observed workload (default 1.15).
	DegradationRatio float64
	// Cooldown is the minimum time between re-plan cutovers on one overlay
	// (default 30s; negative disables the cooldown).
	Cooldown time.Duration
}

// WithAutotune returns an Options value enabling the self-driving
// adaptivity controller, for passing to Open:
//
//	sess, err := eagr.Open(g, eagr.WithAutotune(eagr.AutotuneOptions{}))
//
// To combine with other session defaults, set Options.Autotune directly.
func WithAutotune(a AutotuneOptions) Options {
	return Options{Autotune: &a}
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
	// tuner is the self-driving adaptivity controller, nil unless enabled
	// (Options.Autotune or EnableAutotune). The write/read hot paths never
	// touch it; it samples the engines' always-on observation counters from
	// its own goroutine.
	tuner   *autotune.Controller
	tunerMu sync.Mutex

	// topoEng hosts the session's topology-valued views (internal/topo),
	// created lazily on the first topo Register and attached to the graph's
	// structural-mutation path as a listener. Content writes never touch it
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
	if o.Autotune != nil {
		s.EnableAutotune(*o.Autotune)
	}
	return s, nil
}

// EnableAutotune starts the session's background adaptivity controller (see
// AutotuneOptions); it is what Open does when Options.Autotune is set. A
// no-op if the controller is already running. The controller runs until
// StopAutotune.
func (s *Session) EnableAutotune(a AutotuneOptions) {
	s.tunerMu.Lock()
	defer s.tunerMu.Unlock()
	if s.tuner == nil {
		s.tuner = autotune.New(s.multi, autotune.Config{
			Interval:         a.Interval,
			Decay:            a.Decay,
			MinActivity:      a.MinActivity,
			ColdFactor:       a.ColdFactor,
			HotFactor:        a.HotFactor,
			DegradationRatio: a.DegradationRatio,
			Cooldown:         a.Cooldown,
		})
	}
	s.tuner.Start()
}

// StopAutotune halts the background adaptivity controller and waits for any
// in-flight pass to finish. A no-op when the controller never ran;
// idempotent. Counters survive, so SessionStats keeps reporting what the
// controller did, and EnableAutotune can restart it.
func (s *Session) StopAutotune() {
	s.tunerMu.Lock()
	t := s.tuner
	s.tunerMu.Unlock()
	if t != nil {
		t.Stop()
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
// online (ingest keeps flowing). Incompatible queries compile their own
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
	if d == nil || d.replaying {
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
		// Non-serializable options (custom Neighborhood, explicit
		// frequencies): the query runs but does not survive recovery.
		return q, nil
	}
	if _, err := d.log.AppendRegister(uint64(q.id), blob); err != nil {
		_ = q.closeInner()
		return nil, fmt.Errorf("eagr: durable register: %w", err)
	}
	q.durable = true
	return q, nil
}

// register compiles and attaches a query. forcedID > 0 restores a
// recovered query under its original id; 0 allocates the next one.
func (s *Session) register(spec QuerySpec, o Options, forcedID int) (*Query, error) {
	if spec.WindowTuples > 0 && spec.WindowTime > 0 {
		return nil, ErrConflictingWindow
	}
	name := specOrDefault(spec.Aggregate, "sum")
	a, err := agg.Parse(name)
	if err != nil {
		// Not a numeric aggregate: topology-valued aggregates (density,
		// triangles, ego-betweenness, ...) register through internal/topo.
		// The numeric registry wins on a name collision, preserving the
		// behavior of custom aggregates registered before topo existed.
		if ts, terr := topo.Parse(name); terr == nil {
			return s.registerTopo(ts, spec, o, forcedID)
		}
		return nil, fmt.Errorf("eagr: %w: %w", ErrIncompatibleQuery, err)
	}
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
		Algorithm:   o.Algorithm,
		Mode:        core.Mode(specOrDefault(o.Mode, string(core.ModeDataflow))),
		SplitNodes:  o.SplitNodes,
		MaxReadCost: o.MaxReadCost,
		Construct:   construct.Config{Iterations: o.Iterations},
	}
	if o.ReadFreq != nil || o.WriteFreq != nil {
		wl := dataflow.NewWorkload(s.g.MaxID())
		copy(wl.Read, o.ReadFreq)
		copy(wl.Write, o.WriteFreq)
		co.Workload = wl
	}
	full, fam := compatKey(spec, o)
	att, err := s.multi.AttachMerged(full, fam, q, co)
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
		fullKey: full,
		att:     att,
		tag:     att.ViewTag(),
		subs:    map[*exec.Subscription]struct{}{},
	}
	h.sysRef = att.System()
	h.sys.Store(h.sysRef)
	s.queries[h.id] = h
	return h, nil
}

// registerTopo attaches a topology-valued query (internal/topo): an
// aggregate over the STRUCTURE of each node's 1-hop undirected ego network,
// fed by the graph's edge churn through the structural-listener hook
// instead of a compiled content overlay. Queries with equal (aggregate,
// window) configurations share one refcounted engine view — the topo form
// of compile-key sharing. QuerySpec.WindowTime selects the recompute
// cadence for recompute-class aggregates (ego-betweenness); incremental
// aggregates are always exact and take no window.
// TopoScale is the fixed-point scale for fractional topology values:
// a Result.Scalar of TopoScale reads as 1.0 (density of a perfect clique,
// one unit of ego-betweenness).
const TopoScale = topo.Scale

// TopoAggregates returns the sorted canonical names of the registered
// topology-valued aggregates ("density", "ego-betweenness", …), the
// structural counterpart of the numeric agg registry.
func TopoAggregates() []string { return topo.Names() }

func (s *Session) registerTopo(ts topo.Spec, spec QuerySpec, o Options, forcedID int) (*Query, error) {
	ta, err := topo.New(ts)
	if err != nil {
		return nil, fmt.Errorf("eagr: %w: %w", ErrIncompatibleQuery, err)
	}
	if spec.WindowTuples > 0 {
		return nil, fmt.Errorf("eagr: %w: topology aggregate %q consumes edge churn, not content tuples — it takes no tuple window", ErrIncompatibleQuery, ts.Name)
	}
	if spec.Hops > 1 || o.Neighborhood != nil {
		return nil, fmt.Errorf("eagr: %w: topology aggregate %q is defined on the 1-hop undirected ego network; custom neighborhoods and hop depths do not apply", ErrIncompatibleQuery, ts.Name)
	}
	if spec.WindowTime > 0 && ta.Incremental() {
		return nil, fmt.Errorf("eagr: %w: topology aggregate %q is maintained incrementally (always exact); a recompute window only applies to scheduled aggregates like ego-betweenness", ErrIncompatibleQuery, ts.Name)
	}
	view, err := s.topoEngine().Acquire(ts, spec.WindowTime)
	if err != nil {
		return nil, fmt.Errorf("eagr: %w: %w", ErrIncompatibleQuery, err)
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
		sess:     s,
		id:       id,
		spec:     spec,
		opts:     o,
		fullKey:  ts.Key(spec.WindowTime),
		topoView: view,
		subs:     map[*exec.Subscription]struct{}{},
	}
	s.queries[h.id] = h
	return h, nil
}

// topoEngine returns the session's topology engine, creating it on first
// use. Construction runs under the structural mutation lock (the listener
// attach hook), so the engine's bootstrap snapshot of the graph and the
// event stream it observes afterwards are gap- and overlap-free.
func (s *Session) topoEngine() *topo.Engine {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if s.topoEng == nil {
		s.multi.AttachStructuralListener(func(g *graph.Graph) core.StructuralListener {
			s.topoEng = topo.NewEngine(g)
			return s.topoEng
		})
	}
	return s.topoEng
}

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
// default). Empty keys mean "never share": explicit per-node frequencies
// opt out entirely, and neighborhoods without a stable identity opt out of
// both levels.
func compatKey(spec QuerySpec, o Options) (full, family string) {
	if o.ReadFreq != nil || o.WriteFreq != nil {
		return "", ""
	}
	// Canonical neighborhood identity: Options.Neighborhood overrides
	// spec.Hops exactly as Register does, so QuerySpec{Hops: 2} and
	// Options{Neighborhood: KHop(2)} produce the same key.
	hops := spec.Hops
	if hops < 1 {
		hops = 1
	}
	nbr := fmt.Sprintf("in-%dhop", hops)
	if o.Neighborhood != nil {
		key, ok := neighborhoodKey(o.Neighborhood)
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
	family = fmt.Sprintf("agg=%s|wc=%d|wt=%d|cont=%t|alg=%s|mode=%s|it=%d|split=%t|mrc=%g",
		specOrDefault(spec.Aggregate, "sum"), wc, spec.WindowTime,
		spec.Continuous, o.Algorithm, mode,
		it, o.SplitNodes, o.MaxReadCost)
	return family + "|nbr=" + nbr, family
}

// neighborhoodKey canonicalizes a neighborhood's sharing identity. K is
// always spelled out (Name() collapses every K>2 to "in-khop", which would
// wrongly share different depths); a Filtered neighborhood's identity is
// its tag plus its base's identity (the keep function is opaque), and
// untagged filters or custom implementations have none (ok=false: never
// share).
func neighborhoodKey(nb Neighborhood) (string, bool) {
	switch n := nb.(type) {
	case graph.InNeighbors:
		return "in-1hop", true
	case graph.OutNeighbors:
		return "out-1hop", true
	case graph.KHopIn:
		k := n.K
		if k < 1 {
			k = 1
		}
		return fmt.Sprintf("in-%dhop", k), true
	case graph.Filtered:
		if n.Tag == "" {
			return "", false
		}
		base, ok := neighborhoodKey(n.Base)
		if !ok {
			return "", false
		}
		return "filtered:" + base + ":" + n.Tag, true
	default:
		return "", false
	}
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
	_, err := s.apply(ev[:])
	return err
}

// Event is a single element of the combined data stream (§2.1): one
// interleaved sequence of content writes and structural changes, ingested
// with ApplyBatch, an Ingestor, or the content-only WriteBatch.
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

// apply is the one path every event mutation takes from the public API to
// the engines: Write, WriteBatch, ApplyBatch, ApplyBatchNodes, the four
// structural mutators and the Ingestor's apply stage are all views of it.
// It owns the only durability fork for events — on a durable session the
// batch is WAL-appended and then applied under one hold of the durability
// read lock (so a checkpoint never observes a half-applied batch),
// otherwise it goes straight to the shared apply loop. It returns the node
// ids the batch's NodeAdd events allocated.
func (s *Session) apply(events []Event) ([]NodeID, error) {
	if d := s.dur; d != nil && !d.replaying {
		d.mu.RLock()
		defer d.mu.RUnlock()
		if err := d.logged(events); err != nil {
			return nil, err
		}
	}
	added, err := s.multi.ApplyBatchNodes(events)
	return added, mapNodeErr(err)
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
	_, err := s.apply(events)
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
	return s.apply(events)
}

// WriteBatch is the content-only view of ApplyBatch: non-write events are
// skipped instead of applied (and, on a durable session, never logged, so
// the record replays with identical effect). Updates keep their batch
// order and apply serially on the calling goroutine; for multi-core
// content ingest use an Ingestor, or call WriteBatch from several
// goroutines with disjoint node sets.
func (s *Session) WriteBatch(events []Event) error {
	_, err := s.apply(contentOnly(events))
	return err
}

// ExpireAll advances every query's time-based windows to ts, propagating
// expirations (and subscriber notifications) through the push regions.
// Sessions ingesting through an Ingestor don't call this: the Ingestor's
// watermark drives expiry automatically.
func (s *Session) ExpireAll(ts int64) {
	if d := s.dur; d != nil && !d.replaying {
		// Expiry is LOGGED, not recomputed at recovery: replay reproduces
		// exactly the expiries that ran, independent of the lateness
		// configured by whatever Ingestor exists after restart.
		d.mu.RLock()
		if !d.closed {
			if _, err := d.log.AppendExpire(ts); err == nil {
				casMax(&d.lastExpire, ts)
			}
		}
		s.multi.ExpireAll(ts)
		d.mu.RUnlock()
		return
	}
	s.multi.ExpireAll(ts)
}

// AddEdge applies a structural edge addition u→v (v's ego network gains u
// under the default neighborhood) and incrementally repairs every query's
// overlay.
func (s *Session) AddEdge(u, v NodeID) error {
	_, err := s.apply([]Event{NewEdgeAdd(u, v, 0)})
	return err
}

// RemoveEdge applies a structural edge deletion.
func (s *Session) RemoveEdge(u, v NodeID) error {
	_, err := s.apply([]Event{NewEdgeRemove(u, v, 0)})
	return err
}

// AddNode adds a fresh node to the data graph and every query's overlay.
// (On a durable session replay allocates the same id: the checkpointed
// graph carries its free list, and NodeAdd events apply in log order.)
func (s *Session) AddNode() (NodeID, error) {
	added, err := s.apply([]Event{NewNodeAdd(0)})
	if len(added) == 0 {
		return 0, err
	}
	return added[0], err
}

// RemoveNode deletes a node and its edges everywhere.
func (s *Session) RemoveNode(v NodeID) error {
	_, err := s.apply([]Event{NewNodeRemove(v, 0)})
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
// using the activity observed since the last call, returning the total
// number of decision flips. Rebalancing is fully online: concurrent
// Write/WriteBatch/Read traffic keeps flowing while flipped decisions are
// resynchronized.
func (s *Session) Rebalance() (int, error) { return s.multi.Rebalance() }

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
	Queries int
	// Groups is the number of distinct compiled overlays; queries in one
	// group share all partial aggregators.
	Groups int
	// MergedFamilies counts the overlays hosting more than one member
	// query (the merged multi-query overlays), and MergedQueries the
	// member queries they host: sharing beyond exact configuration twins.
	MergedFamilies int
	MergedQueries  int
	// FamilyOverflows counts registrations that found their merge family at
	// the 64-member tag-space cap and opened a fresh overlay instead of
	// joining the shared one — nonzero means cross-query sharing is
	// degrading under query volume.
	FamilyOverflows int64
	Writers         int
	Readers         int
	Partials        int
	Edges           int
	// DroppedUpdates counts subscription deliveries discarded because
	// consumers fell behind, summed over all live queries.
	DroppedUpdates int64
	// TopoViews is the number of live topology-valued views (internal/topo)
	// the session's topo queries share; 0 when no topo query is registered.
	TopoViews int
	// Adaptivity is the session's live adaptivity state — observation
	// totals and last-rebalance outcome — populated whether or not the
	// autotune controller is running (POST /rebalance feeds it too).
	Adaptivity AdaptivityStats
	// Autotune reports the self-driving adaptivity controller; zero with
	// Enabled=false when it was never started.
	Autotune AutotuneStats
}

// AdaptivityStats aggregates the adaptivity telemetry of every compiled
// overlay in the session.
type AdaptivityStats struct {
	// PushObserved/PullObserved are total push/pull observations drained
	// from the engines' per-node counters (by rebalances or the autotune
	// controller) since the session opened.
	PushObserved, PullObserved int64
	// Rebalances counts rebalance passes across all overlays; LastFlips
	// sums each overlay's most recent pass's flips, and LastRebalanceNano
	// is the wall-clock time (UnixNano) of the newest pass anywhere (0 if
	// none ran).
	Rebalances        int64
	LastFlips         int
	LastRebalanceNano int64
}

// AutotuneStats is the public snapshot of the background adaptivity
// controller's counters (see AutotuneOptions for the knobs behind them).
type AutotuneStats struct {
	// Enabled reports whether the controller's loop is currently running.
	Enabled bool
	// Ticks counts controller passes; Flips the frontier decision flips it
	// applied; ViewDemotions/ViewPromotions the merged-family member views
	// it retargeted; Reoptimizes the full re-plan cutovers.
	Ticks, Flips, ViewDemotions, ViewPromotions, Reoptimizes int64
	// LastTrigger describes the most recent action ("" if none yet).
	LastTrigger string
	// EstimatedCost/PlanCost are the latest degradation check: the cost of
	// the current decisions under the observed workload vs a fresh plan.
	EstimatedCost, PlanCost float64
}

// Stats returns current session-wide statistics.
func (s *Session) Stats() SessionStats {
	st := SessionStats{Groups: s.multi.NumGroups(), FamilyOverflows: s.multi.FamilyOverflows()}
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
		st.Adaptivity.LastFlips += ad.LastFlips
		if ad.LastRebalanceNano > st.Adaptivity.LastRebalanceNano {
			st.Adaptivity.LastRebalanceNano = ad.LastRebalanceNano
		}
	}
	s.tunerMu.Lock()
	if t := s.tuner; t != nil {
		ts := t.Stats()
		st.Autotune = AutotuneStats{
			Enabled:        ts.Running,
			Ticks:          ts.Ticks,
			Flips:          ts.Flips,
			ViewDemotions:  ts.ViewDemotions,
			ViewPromotions: ts.ViewPromotions,
			Reoptimizes:    ts.Reoptimizes,
			LastTrigger:    ts.LastTrigger,
			EstimatedCost:  ts.EstimatedCost,
			PlanCost:       ts.PlanCost,
		}
	}
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
	// tag is the query's member view within its (possibly merged) compiled
	// system: reads, subscriptions and coverage checks address exactly
	// this query's readers even when several queries share one overlay.
	tag int32

	// sys caches the compiled system; nil after Close, which is how the
	// read hot path detects retirement without taking a lock. sysRef is
	// the same pointer, never cleared: subscription teardown needs it
	// when a cancel races Close (the cancel may unsubscribe after Close
	// stored nil into sys, and the channel must still be closed).
	sys    atomic.Pointer[core.System]
	sysRef *core.System

	// topoView is non-nil for topology-valued queries (internal/topo):
	// reads and subscriptions go through the shared engine view and
	// att/sys stay nil. topoClosed is their lock-free retirement flag,
	// playing the role nil-sys plays for overlay queries.
	topoView   *topo.View
	topoClosed atomic.Bool

	mu      sync.Mutex
	att     *core.Attachment
	closed  bool
	subs    map[*exec.Subscription]struct{}
	retired int64 // dropped-update counts inherited from canceled subscriptions
}

// ID returns the session-unique query identifier (stable for the lifetime
// of the handle; used by the HTTP API's /queries/{id} routes).
func (q *Query) ID() int { return q.id }

// Spec returns the QuerySpec the query was registered with.
func (q *Query) Spec() QuerySpec { return q.spec }

// system returns the compiled system or ErrQueryClosed.
func (q *Query) system() (*core.System, error) {
	sys := q.sys.Load()
	if sys == nil {
		return nil, ErrQueryClosed
	}
	return sys, nil
}

// Read returns the current value of the standing query at v.
func (q *Query) Read(v NodeID) (Result, error) {
	if vw := q.topoView; vw != nil {
		if q.topoClosed.Load() {
			return Result{}, ErrQueryClosed
		}
		return vw.Read(v)
	}
	sys, err := q.system()
	if err != nil {
		return Result{}, err
	}
	return sys.ReadView(q.tag, v)
}

// ReadWire evaluates the standing query at v but stops before Finalize,
// returning the partial aggregate as a wire snapshot. A coordinator merges
// one snapshot per shard with agg.MergeWires to answer a cross-shard read;
// single-process callers should use Read.
func (q *Query) ReadWire(v NodeID) (WirePAO, error) {
	if q.topoView != nil {
		// Topology values don't decompose into per-shard partials: with
		// structure replicated to every shard (the sharding invariant),
		// any single shard's Read already IS the exact answer.
		return WirePAO{}, fmt.Errorf("eagr: %w: topology-valued queries have no wire PAO; read the exact value from any shard", ErrIncompatibleQuery)
	}
	sys, err := q.system()
	if err != nil {
		return WirePAO{}, err
	}
	return sys.ReadViewWire(q.tag, v)
}

// Covered reports whether the standing query's result at v is
// push-maintained (pre-computed on every covering write) — exactly the
// nodes a Subscribe observes. Continuous queries compile all-push, so every
// node of theirs is covered; on a quasi-continuous query coverage reflects
// the optimizer's push/pull decisions and may change across Rebalance.
// Unknown nodes and closed queries report false.
func (q *Query) Covered(v NodeID) bool {
	if vw := q.topoView; vw != nil {
		return !q.topoClosed.Load() && vw.Covered(v)
	}
	sys := q.sys.Load()
	if sys == nil {
		return false
	}
	return sys.ViewCovered(q.tag, v)
}

// ReadInto evaluates the standing query at v into a caller-provided result.
// List-valued answers (TOP-K) reuse res.List's backing array when capacity
// allows, so a hot read loop that retains res allocates nothing; *res is
// overwritten on every call.
func (q *Query) ReadInto(v NodeID, res *Result) error {
	if vw := q.topoView; vw != nil {
		if q.topoClosed.Load() {
			return ErrQueryClosed
		}
		r, err := vw.Read(v)
		if err != nil {
			return err
		}
		*res = r
		return nil
	}
	sys, err := q.system()
	if err != nil {
		return err
	}
	return sys.ReadViewInto(q.tag, v, res)
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
	var sub *exec.Subscription
	if vw := q.topoView; vw != nil {
		// Topology-valued queries deliver structural updates through the
		// same bounded drop-oldest channel: incremental aggregates on every
		// edge-churn event that moves an observed ego's value, recompute
		// aggregates at each scheduled watermark tick.
		if q.topoClosed.Load() {
			return nil, nil, ErrQueryClosed
		}
		s, err := vw.Subscribe(buffer, nodes...)
		if err != nil {
			return nil, nil, err
		}
		sub = s
	} else {
		sys, err := q.system()
		if err != nil {
			return nil, nil, err
		}
		s, err := sys.SubscribeView(q.tag, buffer, nodes...)
		if err != nil {
			return nil, nil, err
		}
		sub = s
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.unsubscribe(sub)
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
	dropped := q.unsubscribe(sub)
	q.mu.Lock()
	q.retired += dropped
	q.mu.Unlock()
}

// unsubscribe detaches sub via the query's system — sysRef survives Close,
// and System.Unsubscribe targets the current engine even across
// recompiles — and returns the final drop count. Topology-valued queries
// detach through their engine view instead (topoView also survives Close).
func (q *Query) unsubscribe(sub *exec.Subscription) int64 {
	if vw := q.topoView; vw != nil {
		vw.Unsubscribe(sub)
	} else {
		q.sysRef.Unsubscribe(sub)
	}
	return sub.Dropped()
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
// compiled overlay is released — the overlay itself is torn down only when
// the last query sharing it closes. On a durable session the retirement is
// logged, so the query stays gone after recovery. Closing an
// already-closed query returns ErrQueryClosed.
func (q *Query) Close() error {
	d := q.sess.dur
	if d == nil || d.replaying || !q.durable {
		return q.closeInner()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	q.mu.Lock()
	alreadyClosed := q.closed
	q.mu.Unlock()
	var werr error
	if !alreadyClosed && !d.closed {
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
	if q.closed {
		q.mu.Unlock()
		return ErrQueryClosed
	}
	q.closed = true
	subs := q.subs
	q.subs = map[*exec.Subscription]struct{}{}
	q.mu.Unlock()

	var dropped int64
	for sub := range subs {
		dropped += q.unsubscribe(sub)
	}
	q.mu.Lock()
	q.retired += dropped
	q.mu.Unlock()
	q.sys.Store(nil)
	s := q.sess
	s.mu.Lock()
	delete(s.queries, q.id)
	s.mu.Unlock()
	if vw := q.topoView; vw != nil {
		q.topoClosed.Store(true)
		vw.Release()
		return nil
	}
	return s.multi.Detach(q.att)
}

// Stats summarizes a query's compiled overlay and runtime counters.
type Stats struct {
	Writers, Readers, Partials int
	Edges, NegativeEdges       int
	SharingIndex               float64
	AvgDepth                   float64
	Algorithm                  string
	Mode                       string
	Maintainable               bool
	// Shared is the number of identically-configured queries (including
	// this one) sharing this query's compiled member for free.
	Shared int
	// Family is the number of distinct member queries (including this one)
	// merged into the compiled overlay these stats describe: Family > 1
	// means this query reads a per-query view of a MERGED overlay whose
	// partial aggregators are shared across members with different
	// neighborhoods or reader sets.
	Family int
	// OwnReaders is the number of reader nodes this query's view owns in
	// the (possibly shared) overlay; Readers counts all members' readers.
	OwnReaders int
	// Subscribers is the number of live subscriptions on the overlay's
	// engine; DroppedUpdates counts this query's discarded deliveries.
	Subscribers    int
	DroppedUpdates int64
}

// Stats returns current overlay and configuration statistics; the zero
// Stats after Close.
func (q *Query) Stats() Stats {
	if vw := q.topoView; vw != nil {
		if q.topoClosed.Load() {
			return Stats{}
		}
		alg := "windowed-recompute"
		if vw.Incremental() {
			alg = "incremental"
		}
		return Stats{
			Algorithm:      alg,
			Mode:           "topo",
			Maintainable:   true,
			Shared:         vw.Refs(),
			Family:         1,
			Subscribers:    vw.Subscribers(),
			DroppedUpdates: q.dropped(),
		}
	}
	sys := q.sys.Load()
	if sys == nil {
		return Stats{}
	}
	st := sys.Stats()
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
		Shared:         q.att.Shared(),
		Family:         q.att.FamilySize(),
		OwnReaders:     st.Overlay.QueryReaders[q.tag],
		Subscribers:    sys.Subscribers(),
		DroppedUpdates: q.dropped(),
	}
}

// Sharing returns the query's sharing counters without walking the overlay
// for full statistics: how many identical registrations share its compiled
// member (shared), how many member queries its merge family hosts — itself
// included — on the shared overlay (family), and how many reader nodes its
// own view owns there (ownReaders). Zeros after Close.
func (q *Query) Sharing() (shared, family, ownReaders int) {
	if vw := q.topoView; vw != nil {
		if q.topoClosed.Load() {
			return 0, 0, 0
		}
		return vw.Refs(), 1, 0
	}
	sys := q.sys.Load()
	if sys == nil {
		return 0, 0, 0
	}
	return q.att.Shared(), q.att.FamilySize(), sys.ViewReaders(q.tag)
}

// Internal exposes the query's underlying core system for advanced use
// (runners, benchmarks, custom cost models), or nil after Close.
func (q *Query) Internal() *core.System { return q.sys.Load() }
