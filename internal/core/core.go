// Package core implements the EAGr system proper: it compiles an
// ego-centric aggregate query ⟨F, w, N, pred⟩ over a data graph into an
// aggregation overlay with dataflow decisions (the pre-compiled query plan
// of §2.2.1), executes reads and writes against it, adapts the decisions as
// the observed workload drifts (§4.8), and maintains the overlay under
// structural changes to the data graph (§3.3).
//
// A compiled query keeps its overlay and its decisions in one place: the
// engine's immutable Topology, which compile, Reoptimize, the adaptor and
// every repair decide on and replace. The one mutable overlay is inside the
// incremental maintainer, which exists only in a system that has churned or
// changed members since its last compile; the first such operation thaws it
// from the Topology and it stays from then on.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
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

// System is a compiled, executable EAGr instance hosting one or more
// member queries over ONE shared overlay. Every System belongs to exactly
// one MultiSystem, whose mutex serializes its structural changes with the
// data-graph mutation itself (the graph has no internal locking). A
// single-query System has one view with tag 0 and plain reader GIDs; a
// merged System (a family grown by MultiSystem.AttachMerged) holds the
// UNION of its members' query sets in one overlay whose partial
// aggregators are shared wherever neighborhoods overlap, with per-member
// reader views addressed by tag (paper §3: cross-query sharing).
type System struct {
	mu sync.Mutex // guards overlay repair, recompiles and rebalances

	g    *graph.Graph
	q    Query
	opts Options
	// wl is the expected workload decisions are made for, set by
	// Reoptimize; nil means a uniform 1:1 workload. Guarded by mu.
	wl *dataflow.Workload

	// views is the merge-family state, mutated only under mu (and read by
	// mutators under mu); the read/subscribe hot paths never touch it —
	// they resolve tags through the engine's immutable plan snapshot, so
	// member attach/retire never blocks or races reads. A system is merged
	// once it has taken a member (more than one view, live or retired).
	views []view

	// multi is the MultiSystem hosting this system and shape what
	// construction mines for it; both are fixed at compile. minedAt is the
	// graph version the installed overlay was built at and pristine whether
	// it is still exactly what construction produced there: together they
	// make the engine's Topology the shape's cache entry for same-shape
	// siblings (cloneSibling). Both guarded by mu.
	multi    *MultiSystem
	shape    shape
	minedAt  uint64
	pristine bool
	// eng is the system's one engine, created by compileSystem and never
	// replaced: every later overlay change — repair, decision flip,
	// re-optimization or recompile — reaches it as an exec.Engine.Rebuild,
	// so it is read without synchronization. Its Topology is the overlay at
	// rest and the one home of the system's decisions.
	eng  *exec.Engine
	cost dataflow.CostModel

	// maint is the incremental maintainer, whose overlay is the system's
	// only live one (nil unless maintainable). Every compile and recompile
	// drops it (adopt); the first structural operation builds it over a
	// Thaw of the engine's Topology (maintainerLocked) and it stays from
	// then on, so a session that does not churn holds one copy of its
	// overlay, the engine's. maintainable records whether the installed
	// overlay admits a maintainer, known without keeping one. thaws counts
	// the builds. adaptor is the §4.8 adaptor judging the Topology adapting
	// (adaptorLocked). All guarded by mu.
	maint        *construct.Maintainer
	maintainable bool
	thaws        int
	adaptor      *dataflow.Adaptor
	adapting     *overlay.Topology

	// recompiles counts overlay recompiles (recompileLocked): the slow path
	// structural changes take when the overlay cannot be repaired in place.
	recompiles atomic.Int64

	// Adaptivity telemetry: monotonic totals of drained push/pull
	// observations, rebalance passes and their flips, and the time of the
	// most recent pass. Atomics so stats readers never contend with the
	// mutators holding mu.
	obsPush, obsPull  atomic.Int64
	rebalances        atomic.Int64
	flips             atomic.Int64
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
// returns a ready-to-run system: the one query of a fresh MultiSystem over
// g. The data graph is retained (not copied); structural changes must go
// through the System's (that is, its MultiSystem's) mutation methods.
func Compile(g *graph.Graph, q Query, opts Options) (*System, error) {
	a, err := NewMulti(g).Attach("", q, opts)
	if err != nil {
		return nil, err
	}
	return a.sys, nil
}

// Engine exposes the underlying execution engine (for runners/benchmarks).
func (s *System) Engine() *exec.Engine { return s.eng }

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
	// counts are Attachment.OwnReaders.
	Views int
	// Recompiles counts the structural changes (edge and node churn, member
	// attach and retire) that rebuilt the whole overlay because it could
	// not be repaired in place.
	Recompiles int64
}

// Stats returns the system's current summary. The overlay figures are the
// engine's Topology's; the rest is read under the system mutex.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Overlay:      s.eng.Topology().ComputeStats(),
		Maintainable: s.maintainable,
		Algorithm:    s.opts.Algorithm,
		Mode:         s.opts.Mode,
		Views:        s.liveViewsLocked(),
		Recompiles:   s.recompiles.Load(),
	}
}
