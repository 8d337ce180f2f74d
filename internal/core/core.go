// Package core implements the EAGr system proper: it compiles an
// ego-centric aggregate query ⟨F, w, N, pred⟩ over a data graph into an
// aggregation overlay with dataflow decisions (the pre-compiled query plan
// of §2.2.1), executes reads and writes against it, adapts the decisions as
// the observed workload drifts (§4.8), and maintains the overlay under
// structural changes to the data graph (§3.3).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// Query is the ego-centric aggregate query ⟨F, w, N, pred⟩ of §2.1.
type Query struct {
	// Aggregate is F; built-ins can be obtained from agg.Parse.
	Aggregate agg.Aggregate
	// Window is the sliding window w; nil means most-recent-value (c=1).
	Window agg.Window
	// Neighborhood is N; nil means 1-hop in-neighbors (the paper's
	// running example).
	Neighborhood graph.Neighborhood
	// Predicate selects the queried nodes; nil means all nodes.
	Predicate graph.Predicate
	// Continuous requests continuous (rather than quasi-continuous)
	// semantics: results are kept up to date on every write, which
	// forces push decisions throughout (anomaly-detection style queries).
	Continuous bool
}

// Mode selects how dataflow decisions are made.
type Mode string

// Decision modes (§5.1's comparison systems).
const (
	// ModeDataflow uses the optimal max-flow-based decisions (§4.4).
	ModeDataflow Mode = "dataflow"
	// ModeGreedy uses the linear-time greedy alternative (§4.6).
	ModeGreedy Mode = "greedy"
	// ModeAllPush pre-computes every aggregate (the CEP-style baseline).
	ModeAllPush Mode = "all-push"
	// ModeAllPull computes everything on demand (the social-network-style
	// baseline).
	ModeAllPull Mode = "all-pull"
)

// Options configure compilation.
type Options struct {
	// Algorithm is one of construct.Alg* or "baseline" (direct edges) or
	// "" for automatic selection based on the aggregate's properties
	// (VNM_N for subtractable, VNM_D for duplicate-insensitive, VNM_A
	// otherwise).
	Algorithm string
	// Construct tunes the overlay construction.
	Construct construct.Config
	// Mode selects the decision procedure (default ModeDataflow).
	Mode Mode
	// Workload supplies expected read/write frequencies; nil assumes a
	// uniform 1:1 workload.
	Workload *dataflow.Workload
	// CostModel overrides the aggregate's default H/L model.
	CostModel dataflow.CostModel
	// SplitNodes enables the partial pre-computation optimization (§4.7).
	SplitNodes bool
	// MaxReadCost, when positive, bounds every reader's estimated
	// on-demand evaluation cost: pull subtrees exceeding it are promoted
	// to push (latency-constrained optimization; flagged as future work
	// in the paper's §4.3). Only applies to ModeDataflow.
	MaxReadCost float64
}

// Baseline is the Algorithm value for the direct writer→reader overlay.
const Baseline = "baseline"

// ErrIncompatible reports a query that cannot be compiled as specified —
// a missing aggregate, or an overlay algorithm whose correctness
// precondition (subtractability, duplicate-insensitivity) the aggregate
// does not meet.
var ErrIncompatible = errors.New("incompatible query")

// ErrIncompatibleMerge reports a query that could not be merged into (or
// retired from) an existing merge family's shared overlay. It wraps
// ErrIncompatible so callers treating merge failures as compilation
// failures keep working (errors.Is on either matches).
var ErrIncompatibleMerge = fmt.Errorf("incompatible merge: %w", ErrIncompatible)

// errMergeFull is the internal capacity signal: the family cannot take
// another member (tag space exhausted for its stride). Callers fall back to
// compiling a fresh system instead of surfacing an error.
var errMergeFull = fmt.Errorf("merge family full: %w", ErrIncompatibleMerge)

// maxFamilyViews bounds the member count of one merged overlay; beyond it a
// fresh family is opened (per-write reader fan-out grows with every member,
// so unbounded families would trade the sharing win back away).
const maxFamilyViews = 64

// MemberSpec describes one member query's reader population in a merged
// family: the neighborhood and predicate that may differ between members,
// while the aggregate, window, and mode are shared by the family's base
// Query.
type MemberSpec struct {
	Neighborhood graph.Neighborhood
	Predicate    graph.Predicate
}

// view is one member query's compiled reader view inside a System. tag
// namespaces its readers in the shared overlay (reader GID = tag*stride +
// node); retired views keep their slot (tags are never reused) so live
// handles' tags stay stable.
type view struct {
	nbr  graph.Neighborhood
	pred graph.Predicate
	tag  int32
	live bool
}

// System is a compiled, executable EAGr instance hosting one or more
// member queries over ONE shared overlay. A single-query System (Compile)
// has one view with tag 0 and plain reader GIDs; a merged System
// (CompileMerged, or a single System extended by AddMember) compiles the
// UNION of its members' query sets into one overlay whose partial
// aggregators are shared wherever neighborhoods overlap, with per-member
// reader views addressed by tag (paper §3: cross-query sharing).
type System struct {
	// structMu serializes whole public structural operations, including the
	// data-graph mutation itself (the graph has no internal locking). It is
	// not used by MultiSystem, whose own mutex serializes structural changes
	// across every system sharing the graph.
	structMu sync.Mutex
	mu       sync.Mutex // guards overlay repair, recompiles and rebalances

	g    *graph.Graph
	q    Query
	opts Options

	// views and stride are the merge-family state, mutated only under mu
	// (and read by mutators under mu); the read/subscribe hot paths never
	// touch them — they resolve tags through the engine's immutable plan
	// snapshot, so member attach/retire never blocks or races reads.
	views  []view
	stride graph.NodeID // reader-GID stride; 0 until the system goes merged

	ov *overlay.Overlay
	// multi is the MultiSystem hosting this system (nil for a standalone
	// Compile) and shape what construction mines for it; both are fixed at
	// compile. minedAt is the graph version ov was built at and pristine
	// whether ov is still exactly what construction produced there: together
	// they make the live overlay the shape's cache entry for same-shape
	// siblings (cloneSibling). Both guarded by mu.
	multi    *MultiSystem
	shape    shape
	minedAt  uint64
	pristine bool
	// eng is the system's one engine, created by compileViews and never
	// replaced: every later overlay change — repair, decision flip or
	// recompile — reaches it as an exec.Engine.Rebuild, so it is read without
	// synchronization.
	eng     *exec.Engine
	adaptor *dataflow.Adaptor
	maint   *construct.Maintainer
	cost    dataflow.CostModel
	wl      *dataflow.Workload

	// recompiles counts overlay recompiles (recompileLocked): the slow path
	// structural changes take when the overlay cannot be repaired in place.
	recompiles atomic.Int64

	// Adaptivity telemetry: monotonic totals of drained push/pull
	// observations and the outcome of the most recent rebalance. Atomics so
	// stats readers never contend with the mutators holding mu.
	obsPush, obsPull  atomic.Int64
	rebalances        atomic.Int64
	lastFlips         atomic.Int64
	lastRebalanceNano atomic.Int64
}

// shape identifies what overlay construction produces on a given graph: the
// neighbourhood (by graph.NeighborhoodKey, all nodes queried), the algorithm
// after auto-selection and the construction knobs. The aggregate appears
// only through the algorithm its properties select, which is why sum and
// topk(10) are one shape. The zero shape means "none": a predicate, a
// neighbourhood without a stable identity or a merged reader set.
type shape struct {
	nbr, alg string
	cfg      construct.Config
}

// Compile builds the overlay for the query, makes dataflow decisions, and
// returns a ready-to-run system. The data graph is retained (not copied);
// structural changes must go through the System's mutation methods.
func Compile(g *graph.Graph, q Query, opts Options) (*System, error) {
	return compileViews(nil, g, q, opts, nil, 0)
}

// CompileMerged compiles several member queries sharing base's aggregate,
// window and mode — but each with its own neighborhood and predicate — into
// ONE merged overlay over the union of their query sets, the paper's
// cross-query sharing construction. base's own Neighborhood/Predicate are
// ignored; members[i] becomes the view with tag i, readable through
// ReadView(i, v).
func CompileMerged(g *graph.Graph, base Query, members []MemberSpec, opts Options) (*System, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: merged compile needs at least one member: %w", ErrIncompatibleMerge)
	}
	stride := strideFor(g)
	if len(members) > viewCapacity(stride) {
		return nil, fmt.Errorf("core: %d members exceed merge capacity %d: %w",
			len(members), viewCapacity(stride), ErrIncompatibleMerge)
	}
	views := make([]view, len(members))
	for i, m := range members {
		nbr := m.Neighborhood
		if nbr == nil {
			nbr = graph.InNeighbors{}
		}
		views[i] = view{nbr: nbr, pred: m.Predicate, tag: int32(i), live: true}
	}
	return compileViews(nil, g, base, opts, views, stride)
}

// compileViews is the shared compile path. views nil means single-query
// (one view derived from q, stride 0); otherwise the merged construction.
// multi, when non-nil, is the MultiSystem attaching the query (its mutex
// held): a same-shape sibling there may supply the overlay.
func compileViews(multi *MultiSystem, g *graph.Graph, q Query, opts Options, views []view, stride graph.NodeID) (*System, error) {
	if q.Aggregate == nil {
		return nil, fmt.Errorf("core: query needs an aggregate: %w", ErrIncompatible)
	}
	if q.Neighborhood == nil {
		q.Neighborhood = graph.InNeighbors{}
	}
	if q.Window == nil {
		q.Window = agg.NewTupleWindow(1)
	}
	if opts.Mode == "" {
		opts.Mode = ModeDataflow
	}
	switch opts.Mode {
	case ModeDataflow, ModeGreedy, ModeAllPush, ModeAllPull:
	default:
		return nil, fmt.Errorf("core: unknown mode %q: %w", opts.Mode, ErrIncompatible)
	}
	if q.Continuous {
		opts.Mode = ModeAllPush
	}
	props := q.Aggregate.Props()
	if opts.Algorithm == "" {
		switch {
		case props.Subtractable:
			opts.Algorithm = construct.AlgVNMN
		case props.DuplicateInsensitive:
			opts.Algorithm = construct.AlgVNMD
		default:
			opts.Algorithm = construct.AlgVNMA
		}
	}
	if err := checkLegality(opts.Algorithm, props); err != nil {
		return nil, err
	}

	if views == nil {
		views = []view{{nbr: q.Neighborhood, pred: q.Predicate, tag: 0, live: true}}
	}
	s := &System{g: g, q: q, opts: opts, views: views, stride: stride, multi: multi}
	if key, ok := graph.NeighborhoodKey(q.Neighborhood); ok && q.Predicate == nil && stride == 0 {
		s.shape = shape{nbr: key, alg: opts.Algorithm, cfg: opts.Construct}
	}
	s.cost = opts.CostModel
	if s.cost == nil {
		s.cost = dataflow.ModelFor(q.Aggregate)
	}
	ov, err := s.buildOverlay()
	if err != nil {
		return nil, err
	}
	f, err := s.decide(ov)
	if err != nil {
		return nil, err
	}
	if s.eng, err = exec.New(ov, s.q.Aggregate, s.q.Window); err != nil {
		return nil, err
	}
	s.adopt(ov, f)
	return s, nil
}

// strideFor picks the reader-GID stride for a merged overlay over g: the
// next power of two with at least 2x headroom over the current id space, so
// moderate graph growth never forces a re-stride recompile.
func strideFor(g *graph.Graph) graph.NodeID {
	stride := graph.NodeID(1024)
	for int(stride) < 2*(g.MaxID()+1) {
		stride <<= 1
	}
	return stride
}

// viewCapacity bounds the member count for a stride: every encoded reader
// GID (tag*stride + node) must stay a positive int32.
func viewCapacity(stride graph.NodeID) int {
	c := int(int64(math.MaxInt32)/int64(stride)) - 1
	if c > maxFamilyViews {
		c = maxFamilyViews
	}
	return c
}

func checkLegality(alg string, props agg.Properties) error {
	if !construct.KnownAlgorithm(alg) && alg != Baseline {
		return fmt.Errorf("core: unknown algorithm %q: %w", alg, ErrIncompatible)
	}
	switch alg {
	case construct.AlgVNMN:
		if !props.Subtractable {
			return fmt.Errorf("core: %s requires a subtractable aggregate (negative edges): %w", alg, ErrIncompatible)
		}
	case construct.AlgVNMD:
		if !props.DuplicateInsensitive {
			return fmt.Errorf("core: %s requires a duplicate-insensitive aggregate (duplicate paths): %w", alg, ErrIncompatible)
		}
	}
	return nil
}

// buildOverlay constructs an overlay for the live views over the current
// graph. Merged systems (stride > 0) build the UNION bipartite graph of every
// live view, so construction mines bicliques — and therefore places shared
// partial aggregation nodes — across member queries wherever their
// neighborhoods overlap.
func (s *System) buildOverlay() (*overlay.Overlay, error) {
	if ov := s.cloneSibling(); ov != nil {
		return ov, nil
	}
	if s.multi != nil {
		s.multi.mined.Add(1)
	}
	var ag *bipartite.AG
	if s.stride > 0 {
		members := make([]bipartite.Member, 0, len(s.views))
		for i := range s.views {
			if !s.views[i].live {
				continue
			}
			members = append(members, bipartite.Member{
				Neighborhood: s.views[i].nbr,
				Predicate:    s.views[i].pred,
				Tag:          s.views[i].tag,
			})
		}
		ag = bipartite.BuildUnion(s.g, members, s.stride)
	} else {
		ag = bipartite.Build(s.g, s.q.Neighborhood, s.q.Predicate)
	}
	var ov *overlay.Overlay
	if s.opts.Algorithm == Baseline {
		ov = construct.Baseline(ag)
	} else {
		res, err := construct.Build(s.opts.Algorithm, ag, s.opts.Construct)
		if err != nil {
			return nil, err
		}
		ov = res.Overlay
	}
	if s.stride > 0 {
		ov.SetReaderStride(int32(s.stride))
	}
	return ov, nil
}

// cloneSibling returns a copy of the overlay a same-shape system of the same
// MultiSystem mined at the graph's current structural version, or nil when
// there is none and the caller must mine. The overlay is a function of the
// shape and the graph alone, and decide overwrites every decision, so the
// copy is what buildOverlay would have produced, bit for bit. Nothing is
// retained for this: the sibling's live overlay is the cache entry, valid
// until the graph moves (minedAt) or anything restructures it (pristine —
// cleared by afterMaintenance and by a compile that splits nodes; a system
// that took a member has a stride and no shape to match). Callers hold the
// MultiSystem mutex — every path that reaches buildOverlay on an attached
// system does — so no two systems ever wait on each other's mu here.
func (s *System) cloneSibling() *overlay.Overlay {
	if s.multi == nil || s.shape == (shape{}) || s.stride > 0 {
		return nil
	}
	for _, sib := range *s.multi.systems.Load() {
		if sib == s || sib.shape != s.shape {
			continue
		}
		sib.mu.Lock()
		var ov *overlay.Overlay
		if sib.pristine && sib.stride == 0 && sib.minedAt == s.g.Version() {
			ov = sib.ov.Clone()
		}
		sib.mu.Unlock()
		if ov != nil {
			s.multi.cloned.Add(1)
			return ov
		}
	}
	return nil
}

// windowSizeHint estimates the per-writer window size for costing (§4.2).
func (s *System) windowSizeHint() int {
	n := int(agg.AvgWindowSize(s.q.Window, 1))
	if n < 1 {
		n = 1
	}
	return n
}

// decide annotates ov with dataflow decisions for the system's workload and
// returns the frequencies they were computed from.
func (s *System) decide(ov *overlay.Overlay) (*dataflow.Freqs, error) {
	wl := s.stridedWorkload(s.workloadOrUniform())
	s.wl = wl
	f, err := dataflow.ComputeFreqs(ov, wl, s.windowSizeHint())
	if err != nil {
		return nil, err
	}
	switch s.opts.Mode {
	case ModeAllPush:
		dataflow.DecideAll(ov, overlay.Push)
	case ModeAllPull:
		dataflow.DecideAll(ov, overlay.Pull)
	case ModeGreedy:
		if err := dataflow.DecideGreedy(ov, f, s.cost); err != nil {
			return nil, err
		}
	default:
		if s.opts.MaxReadCost > 0 {
			if _, err := dataflow.DecideLatencyBound(ov, f, s.cost, s.opts.MaxReadCost); err != nil {
				return nil, err
			}
		} else if _, err := dataflow.Decide(ov, f, s.cost); err != nil {
			return nil, err
		}
	}
	if s.splitsNodes() {
		if _, err := dataflow.SplitNodes(ov, f, s.cost); err != nil {
			return nil, err
		}
		// Splitting adds nodes; recompute frequencies and decisions.
		f, err = dataflow.ComputeFreqs(ov, wl, s.windowSizeHint())
		if err != nil {
			return nil, err
		}
		if _, err := dataflow.Decide(ov, f, s.cost); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// splitsNodes reports whether decide restructures the overlay it annotates
// (§4.7 partial pre-computation).
func (s *System) splitsNodes() bool {
	return s.opts.SplitNodes && s.opts.Mode == ModeDataflow
}

// adopt makes ov — built at the graph's current version, decided, and
// already what the engine executes — the system's overlay.
func (s *System) adopt(ov *overlay.Overlay, f *dataflow.Freqs) {
	s.ov = ov
	s.minedAt, s.pristine = s.g.Version(), !s.splitsNodes()
	s.adaptor = dataflow.NewAdaptor(ov, f, s.cost)
	// Incremental maintenance requires single-path, negative-edge-free
	// overlays; when unavailable, structural updates fall back to
	// recompilation.
	s.maint, _ = construct.NewMaintainer(ov)
}

// Read evaluates the standing query at v (the first member's view on a
// merged system).
func (s *System) Read(v graph.NodeID) (agg.Result, error) {
	return s.eng.Read(v)
}

// ReadInto evaluates the standing query at v into a caller-provided result,
// reusing res.List's backing array for list-valued aggregates (TOP-K) so a
// caller that retains res across calls reads without allocating.
func (s *System) ReadInto(v graph.NodeID, res *agg.Result) error {
	return s.eng.ReadInto(v, res)
}

// ReadView evaluates member tag's standing query at v — each member of a
// merged family reads exactly its own view of the shared overlay. Lock-free
// against member attach/retire: the tag resolves through the engine's
// immutable plan snapshot.
func (s *System) ReadView(tag int32, v graph.NodeID) (agg.Result, error) {
	return s.eng.ReadTagged(tag, v)
}

// ViewCovered reports whether member tag's result at v is push-maintained —
// i.e. whether a subscription on v observes updates (see exec.Engine.Covered).
func (s *System) ViewCovered(tag int32, v graph.NodeID) bool {
	return s.eng.CoveredTagged(tag, v)
}

// Engine exposes the underlying execution engine (for runners/benchmarks).
func (s *System) Engine() *exec.Engine { return s.eng }

// Subscribe registers a continuous listener on the system's engine (see
// exec.Engine.Subscribe). Like reads it does not wait for overlay repairs or
// recompiles: a subscription installed while one runs is re-resolved against
// the recompiled plan by the engine itself.
func (s *System) Subscribe(buffer int, nodes ...graph.NodeID) (*exec.Subscription, error) {
	return s.SubscribeView(0, buffer, nodes...)
}

// SubscribeView is Subscribe for member tag's reader view of a merged
// family: with no nodes it covers every reader the member owns (never a
// sibling member's), otherwise only the member's standing queries at the
// given nodes.
func (s *System) SubscribeView(tag int32, buffer int, nodes ...graph.NodeID) (*exec.Subscription, error) {
	return s.eng.SubscribeTagged(tag, buffer, nodes...)
}

// Unsubscribe removes a subscription and closes its channel.
func (s *System) Unsubscribe(sub *exec.Subscription) { s.eng.Unsubscribe(sub) }

// Subscribers reports the engine's live subscription count.
func (s *System) Subscribers() int { return s.eng.Subscribers() }

// ExportWindows snapshots every writer's in-window (value, timestamp)
// entries (see exec.Engine.ExportWindows).
func (s *System) ExportWindows(visit func(node graph.NodeID, entries []agg.WindowEntry)) {
	s.eng.ExportWindows(visit)
}

// Overlay exposes the compiled overlay (for inspection).
func (s *System) Overlay() *overlay.Overlay { return s.ov }

// Rebalance feeds the engine's observed push/pull counts to the adaptive
// scheme and applies any frontier decision flips (§4.8), installing the new
// decisions in the engine when flips occurred. It returns the number of
// flips.
//
// Write and read traffic may keep flowing while Rebalance runs: reads
// never pause; writes wait for the install step only (exec.Engine.Rebuild
// seeds push state from the windows under its gate — AdaptivityStats reports
// how long). Rebalance serializes only with other structural operations
// (mutations, Reoptimize).
func (s *System) Rebalance() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainObservationsLocked()
	return s.applyRebalanceLocked()
}

// Reoptimize recomputes dataflow decisions from a new expected workload
// (keeping the overlay structure) and installs them in the engine.
func (s *System) Reoptimize(wl *dataflow.Workload) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wl != nil {
		// Kept strided, so a later re-stride can tell its reader GIDs
		// were encoded under another stride.
		s.opts.Workload = s.stridedWorkload(wl)
	}
	s.wl = s.stridedWorkload(s.workloadOrUniform())
	f, err := dataflow.ComputeFreqs(s.ov, s.wl, s.windowSizeHint())
	if err != nil {
		return err
	}
	if _, err := dataflow.Decide(s.ov, f, s.cost); err != nil {
		return err
	}
	s.adaptor = dataflow.NewAdaptor(s.ov, f, s.cost)
	return s.eng.Rebuild(s.ov, s.q.Window, nil)
}

func (s *System) workloadOrUniform() *dataflow.Workload {
	if s.opts.Workload != nil {
		return s.opts.Workload
	}
	return dataflow.Uniform(s.g.MaxID(), 1, 1)
}

// stridedWorkload applies the system's reader stride to a workload so
// merged-overlay reader GIDs (tag*stride+node) decode back to data-graph
// nodes in frequency lookups. Copy-on-write: a caller-owned workload is
// never mutated. EVERY path that feeds a workload into ComputeFreqs on a
// merged system must go through this, or tag>=1 readers read frequency 0
// and the decisions demote them to pull. Per-reader reads keyed under
// another non-zero stride name other readers now and are dropped; under
// stride 0 they are tag-0 GIDs, which no stride changes.
func (s *System) stridedWorkload(wl *dataflow.Workload) *dataflow.Workload {
	if s.stride == 0 || wl == nil || wl.Stride == int(s.stride) {
		return wl
	}
	strided := *wl
	if wl.Stride > 0 {
		strided.ReaderReads = nil
	}
	strided.Stride = int(s.stride)
	return &strided
}

// AddGraphEdge applies a structural edge addition (S_G event) to the data
// graph and incrementally repairs the overlay.
func (s *System) AddGraphEdge(u, v graph.NodeID) error {
	_, err := s.applyStructuralEvent(graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: v})
	return err
}

// RemoveGraphEdge applies a structural edge deletion.
func (s *System) RemoveGraphEdge(u, v graph.NodeID) error {
	_, err := s.applyStructuralEvent(graph.Event{Kind: graph.EdgeRemove, Node: u, Peer: v})
	return err
}

// AddGraphNode adds a node to the data graph and registers it with the
// overlay (initially with no edges).
func (s *System) AddGraphNode() (graph.NodeID, error) {
	return s.applyStructuralEvent(graph.Event{Kind: graph.NodeAdd})
}

// RemoveGraphNode deletes a node and its incident edges.
func (s *System) RemoveGraphNode(v graph.NodeID) error {
	_, err := s.applyStructuralEvent(graph.Event{Kind: graph.NodeRemove, Node: v})
	return err
}

// applyStructuralEvent is a structural run of one event on a standalone
// system: the same protocol a MultiSystem runs, serialized by structMu. It
// returns the node id a NodeAdd allocated.
func (s *System) applyStructuralEvent(ev graph.Event) (graph.NodeID, error) {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	added, errs := structuralRun(s.g, []*System{s}, nil, []graph.Event{ev})
	var v graph.NodeID
	if len(added) > 0 {
		v = added[0]
	}
	return v, errors.Join(errs...)
}

// viewBase returns the reader-GID offset of a member view.
func (s *System) viewBase(vw *view) graph.NodeID {
	return graph.NodeID(vw.tag) * s.stride
}

// repairBatch accumulates one coalesced structural run against this system:
// the union of affected readers per member view, plus whether anything in
// the run forces a full recompile. The batch methods are graph-mutation-free
// — they consult or repair the overlay but never touch the data graph — so
// a MultiSystem hosting several overlays over ONE shared graph mutates the
// graph exactly once per event and fans the repair out to every system.
// They are the ONLY structural repair path: a single structural operation
// (System.AddGraphEdge, a one-event MultiSystem.Apply, …) is a batch of one, and a
// mixed-stream structural run of N events ends in exactly one
// applyRepairBatch — one decision repair and one engine install instead of
// N, with a reader touched by several events diffed once.
//
// The batch methods assume the caller serializes structural operations
// (structMu or the MultiSystem mutex); each takes s.mu for its own overlay
// access.
type repairBatch struct {
	// affected is the per-view union of readers whose neighborhoods the
	// run's edge/node events touched; repairViewLocked diffs each against
	// the final graph, so supersets and stale (since-removed) readers are
	// harmless.
	affected  []map[graph.NodeID]bool
	recompile bool
	touched   bool
	// removed records every node id this run deleted, whether or not the
	// id was later reused by an add: if the run degrades to a recompile,
	// the engine rebuild must not carry their windows onto the reused ids.
	removed map[graph.NodeID]bool
	// err collects maintainer failures that degraded the batch to a
	// recompile; applyRepairBatch surfaces them even when the recompile
	// succeeds.
	err error
}

// beginRepairBatch opens a structural batch sized to the current views.
func (s *System) beginRepairBatch() *repairBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &repairBatch{affected: make([]map[graph.NodeID]bool, len(s.views))}
}

// markAffectedLocked folds readers into view i's affected set.
func (b *repairBatch) markAffectedLocked(i int, readers []graph.NodeID) {
	if b.affected[i] == nil {
		b.affected[i] = make(map[graph.NodeID]bool, len(readers))
	}
	for _, r := range readers {
		b.affected[i][r] = true
	}
}

// batchEdgeTouched folds the readers an edge change u→v touches into the
// batch, per member view. For removals call it BEFORE the graph mutation
// (the affected walk needs the edge present); for additions, after.
func (s *System) batchEdgeTouched(b *repairBatch, u, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.recompile || s.maint == nil {
		b.recompile = true
		return
	}
	for i := range s.views {
		// Views appended after the batch opened (a direct AddMember racing
		// a MultiSystem run) compiled against the current graph already;
		// skip them instead of indexing past the batch's slices.
		if i >= len(b.affected) || !s.views[i].live {
			continue
		}
		b.markAffectedLocked(i, construct.AffectedByEdge(s.g, s.views[i].nbr, u, v))
	}
}

// batchNodeRemovalAffected folds the pre-removal affected reader sets of
// removing v into the batch; call it BEFORE the graph mutation.
func (s *System) batchNodeRemovalAffected(b *repairBatch, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.recompile || s.maint == nil {
		b.recompile = true
		return
	}
	for i := range s.views {
		if i >= len(b.affected) || !s.views[i].live {
			continue
		}
		nbr := s.views[i].nbr
		for _, u := range s.g.Out(v) {
			b.markAffectedLocked(i, construct.AffectedByEdge(s.g, nbr, v, u))
		}
		for _, u := range s.g.In(v) {
			b.markAffectedLocked(i, construct.AffectedByEdge(s.g, nbr, u, v))
		}
		delete(b.affected[i], v)
	}
}

// batchNodeAdded registers a freshly added graph node with the overlay —
// the maintainer half of nodeAdded, with the engine republish deferred to
// applyRepairBatch. Maintainer failures degrade to the batch's single
// recompile (which rebuilds the overlay from the final graph wholesale).
func (s *System) batchNodeAdded(b *repairBatch, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.recompile || s.maint == nil {
		b.recompile = true
		return
	}
	if s.stride > 0 && v >= s.stride {
		// Id space outgrew the reader stride; the batch-final recompile
		// picks a wider one (restride before rebuild, as nodeAdded does).
		b.recompile = true
		return
	}
	s.maint.AddWriter(v)
	for i := range s.views {
		vw := &s.views[i]
		if !vw.live {
			continue
		}
		if vw.pred != nil && !vw.pred(s.g, v) {
			continue
		}
		if err := s.maint.AddReader(s.viewBase(vw)+v, nil); err != nil {
			b.recompile = true
			b.err = errors.Join(b.err, err)
			return
		}
	}
}

// batchNodeRemoved sweeps a removed node's writer and per-view readers out
// of the overlay — the maintainer half of nodeRemoved, with the affected
// repair and engine republish deferred to applyRepairBatch. Call it AFTER
// the graph mutation and after batchNodeRemovalAffected.
func (s *System) batchNodeRemoved(b *repairBatch, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.removed == nil {
		b.removed = make(map[graph.NodeID]bool)
	}
	b.removed[v] = true
	if b.recompile || s.maint == nil {
		b.recompile = true
		return
	}
	// RemoveNode drops the writer and the tag-0 reader (whose GID is the
	// plain node id); higher tags' readers are swept explicitly.
	if err := s.maint.RemoveNode(v); err != nil {
		b.recompile = true
		b.err = errors.Join(b.err, err)
		return
	}
	for i := range s.views {
		vw := &s.views[i]
		if !vw.live || vw.tag == 0 {
			continue
		}
		if err := s.maint.RemoveReader(s.viewBase(vw) + v); err != nil {
			b.recompile = true
			b.err = errors.Join(b.err, err)
			return
		}
	}
}

// applyRepairBatch finishes a structural run: every affected reader of
// every view is diffed against the final graph once, then the repaired
// overlay is installed in the engine once — or, when anything in the run
// demanded it (non-maintainable overlay, stride overflow, maintainer
// failure), one full recompile replaces the whole repair. A batch that saw
// no structural event is a no-op.
func (s *System) applyRepairBatch(b *repairBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !b.touched {
		return nil
	}
	// Any recompile below (forced by the batch, or the fallback when an
	// incremental repair fails partway) carries window content over, minus
	// the nodes this run removed.
	if b.recompile {
		// b.err carries any maintainer failure that forced this recompile;
		// surface it even when the rebuild succeeds.
		if s.stride > 0 && graph.NodeID(s.g.MaxID()) > s.stride {
			return errors.Join(b.err, s.restrideLocked(b.removed))
		}
		return errors.Join(b.err, s.recompileLocked(b.removed))
	}
	var err error
	for i := range s.views {
		if i >= len(b.affected) || !s.views[i].live || len(b.affected[i]) == 0 {
			continue
		}
		list := make([]graph.NodeID, 0, len(b.affected[i]))
		for r := range b.affected[i] {
			list = append(list, r)
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		if err = s.repairViewLocked(&s.views[i], list); err != nil {
			break
		}
	}
	if err == nil {
		err = s.afterMaintenance()
	}
	if err != nil {
		// The incremental repair failed partway, or the repaired overlay
		// could not be installed and the engine is still on its previous
		// plan; a recompile restores a consistent overlay from the final
		// graph. Surface the error even when the recompile succeeds, so the
		// caller knows the fast path degraded.
		return errors.Join(err, s.recompileLocked(b.removed))
	}
	return nil
}

// repairViewLocked diffs each affected reader's neighborhood (under the
// member view's own neighborhood function and predicate) against the
// overlay and applies the deltas through the maintainer. The caller runs
// afterMaintenance once all views are repaired.
func (s *System) repairViewLocked(vw *view, affected []graph.NodeID) error {
	base := s.viewBase(vw)
	for _, r := range affected {
		if !s.g.Alive(r) {
			continue
		}
		rid := base + r
		if vw.pred != nil && !vw.pred(s.g, r) {
			// The predicate no longer admits r: its reader (if any) must
			// go, or this view would diverge from a freshly compiled one.
			if err := s.maint.RemoveReader(rid); err != nil {
				return err
			}
			continue
		}
		want := vw.nbr.Select(s.g, r)
		wantSet := make(map[graph.NodeID]bool, len(want))
		for _, w := range want {
			wantSet[w] = true
		}
		ref := s.ov.Reader(rid)
		if ref == overlay.NoNode {
			// Newly admitted (or never materialized) reader: insert it
			// whole through the incremental builder, empty-input readers
			// included — compile keeps those queryable too.
			if err := s.maint.AddReader(rid, want); err != nil {
				return err
			}
			continue
		}
		have := s.ov.InputSet(ref)
		var adds, dels []graph.NodeID
		for w := range wantSet {
			if have[w] == 0 {
				adds = append(adds, w)
			}
		}
		for w := range have {
			if !wantSet[w] {
				dels = append(dels, w)
			}
		}
		sort.Slice(adds, func(i, j int) bool { return adds[i] < adds[j] })
		sort.Slice(dels, func(i, j int) bool { return dels[i] < dels[j] })
		if len(dels) > 0 {
			if err := s.maint.RemoveReaderInputs(rid, dels); err != nil {
				return err
			}
		}
		if len(adds) > 0 {
			if err := s.maint.AddReaderInputs(rid, adds); err != nil {
				return err
			}
		}
	}
	return nil
}

// afterMaintenance installs the overlay in the engine after it changed
// shape. An error means the engine is still on its previous plan and the
// caller must fall back to a recompile. Restructuring may have inserted
// pull-annotated partials beneath push nodes; the repair pass restores the
// decision invariant before state is rebuilt. All-push systems (notably continuous queries,
// whose Subscribe coverage must stay complete) re-force every node to push,
// since maintenance creates new readers pull-annotated.
func (s *System) afterMaintenance() error {
	s.pristine = false
	if s.opts.Mode == ModeAllPush {
		dataflow.DecideAll(s.ov, overlay.Push)
	} else {
		dataflow.RepairDecisions(s.ov)
	}
	// The adaptor's per-node arrays are sized for the overlay it was built
	// from; maintenance may have added nodes (partial splits, merged-family
	// member insertion), so rebuild it or the next Rebalance would observe
	// refs it has no slots for.
	f, err := dataflow.ComputeFreqs(s.ov, s.wl, s.windowSizeHint())
	if err != nil {
		return err
	}
	s.adaptor = dataflow.NewAdaptor(s.ov, f, s.cost)
	return s.eng.Rebuild(s.ov, s.q.Window, nil)
}

// restrideLocked rebuilds a merged system whose data graph outgrew its
// reader stride. Member tags survive (subscriptions and handles address
// views by tag plus real node id, never by encoded GID) and window
// contents are carried over (minus skip, see recompileLocked), so the rebuild
// is invisible to readers.
func (s *System) restrideLocked(skip map[graph.NodeID]bool) error {
	stride := strideFor(s.g)
	if len(s.views) > viewCapacity(stride) {
		return fmt.Errorf("core: graph growth to %d nodes leaves no room for %d merged views: %w",
			s.g.MaxID(), len(s.views), ErrIncompatibleMerge)
	}
	s.stride = stride
	return s.recompileLocked(skip)
}

// AddMember extends the merged overlay with one more member query ONLINE:
// on a maintainable overlay the new member's readers are inserted one by
// one through the incremental builder — covered by the existing shared
// partial aggregates where profitable — while reads keep flowing and writes
// wait for the engine's install step only. Overlays without incremental
// maintenance recompile the union from scratch; window contents and live
// subscriptions survive either way. Returns the new member's view tag.
//
// A single-query System converts to a merged one on its first AddMember;
// its existing tag-0 readers already use plain node ids, which is exactly
// tag 0 of the encoded scheme, so conversion adds no work.
func (s *System) AddMember(spec MemberSpec) (int32, error) {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	nbr := spec.Neighborhood
	if nbr == nil {
		nbr = graph.InNeighbors{}
	}
	if s.stride == 0 {
		s.stride = strideFor(s.g)
		s.ov.SetReaderStride(int32(s.stride))
		// The maintainable path below skips decide, so the
		// workload must pick up the stride here or every subsequent
		// freq computation sees tag>=1 readers as never read.
		s.wl = s.stridedWorkload(s.wl)
	} else if graph.NodeID(s.g.MaxID()) > s.stride {
		if err := s.restrideLocked(nil); err != nil {
			return 0, err
		}
	}
	if len(s.views)+1 > viewCapacity(s.stride) {
		return 0, errMergeFull
	}
	tag := int32(len(s.views))
	vw := view{nbr: nbr, pred: spec.Predicate, tag: tag, live: true}
	s.views = append(s.views, vw)
	if s.maint == nil {
		if err := s.recompileLocked(nil); err != nil {
			s.views[tag].live = false
			return 0, fmt.Errorf("core: merged recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return tag, nil
	}
	base := s.viewBase(&s.views[tag])
	var insertErr error
	s.g.ForEachNode(func(v graph.NodeID) {
		if insertErr != nil {
			return
		}
		if vw.pred != nil && !vw.pred(s.g, v) {
			return
		}
		insertErr = s.maint.AddReader(base+v, nbr.Select(s.g, v))
	})
	if insertErr == nil {
		insertErr = s.afterMaintenance()
	}
	if insertErr != nil {
		// Roll back by recompiling from the remaining live views: the
		// half-inserted view is already marked dead, and the rebuild
		// discards the partially-extended overlay wholesale (no point
		// sweeping its readers out one by one first).
		s.views[tag].live = false
		if err := s.recompileLocked(nil); err != nil {
			return 0, fmt.Errorf("core: merge rollback recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return 0, fmt.Errorf("core: merge extension: %w: %w", ErrIncompatibleMerge, insertErr)
	}
	return tag, nil
}

// RetireMember removes member tag's reader view from the merged overlay —
// online on maintainable overlays (its readers leave one by one and orphan
// partials are garbage-collected), via recompile otherwise. The member's
// tag is never reused. The last live member cannot be retired; tear the
// System down instead.
func (s *System) RetireMember(tag int32) error {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(tag) >= len(s.views) || !s.views[tag].live {
		return fmt.Errorf("core: retire member %d: %w", tag, ErrDetached)
	}
	if s.liveViewsLocked() == 1 {
		return fmt.Errorf("core: cannot retire the last member: %w", ErrIncompatibleMerge)
	}
	s.views[tag].live = false
	if s.maint == nil {
		if err := s.recompileLocked(nil); err != nil {
			return fmt.Errorf("core: retire recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return nil
	}
	var gids []graph.NodeID
	s.ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		if n.Kind == overlay.ReaderNode && s.ov.TagOf(ref) == tag {
			gids = append(gids, n.GID)
		}
	})
	for _, gid := range gids {
		if err := s.maint.RemoveReader(gid); err != nil {
			return fmt.Errorf("core: retire member %d: %w: %w", tag, ErrIncompatibleMerge, err)
		}
	}
	if err := s.afterMaintenance(); err != nil {
		return fmt.Errorf("core: retire member %d: %w: %w", tag, ErrIncompatibleMerge, errors.Join(err, s.recompileLocked(nil)))
	}
	return nil
}

// LiveViews reports the number of live member queries sharing this system's
// overlay (1 for a plain single-query system).
func (s *System) LiveViews() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveViewsLocked()
}

// liveViewsLocked counts the live member views; callers hold s.mu.
func (s *System) liveViewsLocked() int {
	live := 0
	for i := range s.views {
		if s.views[i].live {
			live++
		}
	}
	return live
}

// recompileLocked rebuilds the overlay from scratch (used when incremental
// maintenance is not applicable, e.g. negative-edge overlays) and moves the
// engine onto it. Only the engine's install step holds writes back; overlay
// construction and the dataflow decisions run with ingest flowing. Window
// contents survive — exec.Engine.Rebuild carries each writer's window to its
// new slot, except for the ids in skip, which the structural run that forced
// the recompile deleted and may since have reused — so a recompile answers
// reads exactly like an incrementally repaired overlay would, which is what
// lets shard replicas with independently compiled overlays stay
// content-equivalent under structural churn. On error the system keeps its
// previous overlay.
func (s *System) recompileLocked(skip map[graph.NodeID]bool) error {
	ov, err := s.buildOverlay()
	if err != nil {
		return err
	}
	f, err := s.decide(ov)
	if err != nil {
		return err
	}
	if err := s.eng.Rebuild(ov, s.q.Window, skip); err != nil {
		return err
	}
	s.adopt(ov, f)
	s.recompiles.Add(1)
	return nil
}

// Stats summarizes the compiled system.
type Stats struct {
	Overlay overlay.Stats
	// Maintainable is true when incremental structural maintenance is
	// available (single-path overlay without negative edges).
	Maintainable bool
	Algorithm    string
	Mode         Mode
	// Views is the number of live member queries sharing the overlay (the
	// merge family size; 1 for single-query systems). Per-member reader
	// counts are in Overlay.QueryReaders, keyed by view tag.
	Views int
	// Recompiles counts the structural changes (edge and node churn, member
	// attach and retire, re-strides) that rebuilt the whole overlay because
	// it could not be repaired in place.
	Recompiles int64
}

// Stats returns the system's current summary. It serializes with
// structural operations under the system mutex: ComputeStats walks the
// live overlay, which repairs mutate.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Overlay:      s.ov.ComputeStats(),
		Maintainable: s.maint != nil,
		Algorithm:    s.opts.Algorithm,
		Mode:         s.opts.Mode,
		Views:        s.liveViewsLocked(),
		Recompiles:   s.recompiles.Load(),
	}
}
