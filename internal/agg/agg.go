// Package agg implements EAGr's aggregation framework (paper §2.2): partial
// aggregate objects (PAOs), the user-defined aggregate API, the built-in
// aggregates SUM, COUNT, AVG, MIN, MAX, TOP-K and DISTINCT, and per-writer
// sliding windows.
//
// A PAO has the six methods the engine calls: AddValue, RemoveValue, Merge,
// Unmerge, Finalize and Reset. The paper's INITIALIZE is Aggregate.NewPAO and
// its FINALIZE is Finalize. Its UPDATE(PAO, PAO_old, PAO_new) is never called
// as such: the engine pushes the raw delta of a change downstream, so an
// update reaches every push PAO it affects as RemoveValue of the value that
// left and AddValue of the value that arrived, and a pull evaluation builds
// its answer by Merge and Unmerge of its inputs' PAOs.
package agg

import (
	"fmt"
	"sort"
)

// Result is the finalized answer of an aggregate. Scalar carries the value
// for scalar aggregates (SUM, COUNT, MIN, MAX, ...); List carries the answer
// for set/list-valued aggregates (TOP-K, DISTINCT). Valid is false when the
// aggregate is over an empty input set (e.g. MAX of nothing).
type Result struct {
	Scalar int64
	List   []int64
	Valid  bool
}

// Eq reports whether two results are equal (List order-sensitive).
func (r Result) Eq(o Result) bool {
	if r.Valid != o.Valid || r.Scalar != o.Scalar || len(r.List) != len(o.List) {
		return false
	}
	for i := range r.List {
		if r.List[i] != o.List[i] {
			return false
		}
	}
	return true
}

// String formats the result for logs and examples.
func (r Result) String() string {
	if !r.Valid {
		return "<empty>"
	}
	if r.List != nil {
		return fmt.Sprint(r.List)
	}
	return fmt.Sprint(r.Scalar)
}

// Properties describe an aggregate function's algebraic structure. The
// overlay compiler uses them to decide which overlay shapes are legal
// (paper §2.1, §3.1).
type Properties struct {
	// DuplicateInsensitive is true when multiple contributions of the same
	// input do not change the answer (MAX, MIN, DISTINCT). Such aggregates
	// admit overlays with multiple writer→reader paths (VNM_D).
	DuplicateInsensitive bool
	// Subtractable is true when a contribution can be efficiently removed
	// (SUM, COUNT, AVG, TOP-K). Such aggregates admit negative edges
	// (VNM_N).
	Subtractable bool
}

// PAO is a partial aggregate object: the state maintained at an overlay node
// (paper §2.2.2). A PAO aggregates some subset of the inputs; PAOs combine
// by Merge, and are incrementally maintained by the raw values an upstream
// change adds and removes.
//
// PAOs are not safe for concurrent use; the execution engine synchronizes
// access per overlay node.
type PAO interface {
	// AddValue ingests a raw stream value (used at writer nodes when a
	// write arrives or a window slides in a value).
	AddValue(v int64)
	// RemoveValue removes a raw stream value (window expiry). It is only
	// called with values previously passed to AddValue.
	RemoveValue(v int64)
	// Merge folds another PAO's contribution into this one.
	Merge(other PAO)
	// Unmerge removes another PAO's contribution. Used for negative edges
	// and for incremental update; only supported when the aggregate is
	// Subtractable or the implementation tracks contributions as a
	// multiset (MIN/MAX).
	Unmerge(other PAO)
	// Finalize computes the final answer from this PAO.
	Finalize() Result
	// Reset clears the PAO back to its initialized state.
	Reset()
}

// Aggregate is the aggregate function F of a query. Implementations provide
// a PAO factory (the INITIALIZE call) and declare their algebraic
// properties. User-defined aggregates implement exactly this interface
// (paper §2.2.3).
type Aggregate interface {
	// Name identifies the aggregate (e.g. "sum", "topk(3)").
	Name() string
	// NewPAO returns a freshly initialized partial aggregate object.
	NewPAO() PAO
	// Props returns the aggregate's algebraic properties.
	Props() Properties
}

// IntoFinalizer is implemented by PAOs of list-valued aggregates (TOP-K)
// that can write their answer into a caller-provided buffer. FinalizeInto
// behaves exactly like Finalize but reuses buf's backing array for
// Result.List when its capacity suffices, so steady-state reads through
// Engine.ReadInto allocate nothing. buf may be nil (Finalize is equivalent
// to FinalizeInto(nil)).
//
// FinalizeInto requires exclusive access to the PAO, exactly like a
// mutation: an implementation may update state it keeps to make the next
// finalize cheap (topkPAO refills and re-arms its materialized answer
// head). Two concurrent FinalizeInto calls on one PAO, or one concurrent
// with AddValue/Merge, are a data race. The engine calls it under the
// owning node's mutex or on arena-private PAOs.
type IntoFinalizer interface {
	FinalizeInto(buf []int64) Result
}

// OnceFinalizer is implemented by PAOs that finalize more cheaply when
// nothing will finalize them again before a Reset or a bulk change — the
// arena PAO of a pull read. FinalizeOnce returns exactly what
// FinalizeInto(buf) would, but keeps no state for a next finalize (topkPAO
// selects k entries instead of its 2k-entry upkeep head and leaves the head
// unarmed); a FinalizeInto after it is still exact. It needs the same
// exclusive access as FinalizeInto.
type OnceFinalizer interface {
	FinalizeOnce(buf []int64) Result
}

// SelectAggregate is implemented by selection aggregates — MAX and MIN —
// whose answer over a union of inputs is the best of the inputs' own
// answers. The engine evaluates a pull node of one by folding its inputs'
// Best values with Better instead of merging PAOs: a selection over a union
// is exact whatever the grouping and idempotent under duplicate paths, but
// it has no inverse, so an overlay with a negative edge is refused for it.
// Its PAOs implement SelectPAO.
type SelectAggregate interface {
	Aggregate
	// Better reports whether a is a strictly better answer than b.
	Better(a, b int64) bool
}

// SelectPAO is the PAO of a SelectAggregate. Best returns the current answer
// — what Finalize would put in Result.Scalar — and ok=false over an empty
// input set. Like a mutation it needs exclusive access: an implementation
// may discard stale state on the way.
type SelectPAO interface {
	PAO
	Best() (v int64, ok bool)
}

// ScalarAggregate is implemented by invertible scalar aggregates whose
// entire PAO state is the pair (sum, n) — the running sum of in-window
// values and the number of contributions. The execution engine maintains
// such aggregates with two atomic counters per overlay node, skipping the
// per-node mutex and all PAO allocation on both the write and the read
// path. SUM, COUNT and AVG are the built-in instances.
type ScalarAggregate interface {
	Aggregate
	// FinalizeScalar computes the final answer from the (sum, n) state,
	// mirroring what the aggregate's PAO Finalize would return.
	FinalizeScalar(sum, n int64) Result
}

// sortInt64 sorts a slice ascending.
func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
