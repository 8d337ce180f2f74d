package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// ErrUnknownNode reports an operation on a data-graph node the overlay has
// no reader for (it was never queried, or has been removed).
var ErrUnknownNode = errors.New("unknown node")

// Update is one continuous-query result delivery: the standing query at
// Node changed to Result because of a write with timestamp TS somewhere in
// Node's ego network.
type Update struct {
	Node   graph.NodeID
	Result agg.Result
	TS     int64
}

// Subscription is a registered continuous-query listener. Updates are
// delivered on a bounded channel with drop-oldest semantics: when the
// consumer falls behind, the oldest buffered update is discarded (and
// counted) so the ingest path never blocks on a slow consumer.
type Subscription struct {
	// tag is the query view the subscription observes (0 on single-query
	// engines); nodes holds the subscribed data-graph nodes (nil = every
	// reader of the tag's view); refs the corresponding reader slots,
	// sorted and distinct, in the engine's current plan. refs is re-derived
	// from (tag, nodes) by Engine.Rebuild, since a recompiled overlay
	// numbers its slots afresh; tag and nodes are stable across rebuilds.
	// Guarded by Engine.subMu.
	tag   int32
	nodes []graph.NodeID
	refs  []overlay.NodeRef

	mu      sync.Mutex
	ch      chan Update
	closed  bool
	dropped atomic.Int64
}

// Updates returns the delivery channel. It is closed by Engine.Unsubscribe;
// a consumer can simply range over it.
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Dropped returns the number of updates discarded because the consumer fell
// behind the bounded buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// deliver enqueues u without ever blocking: if the buffer is full the
// oldest pending update is evicted first (drop-oldest), and every eviction
// or failed retry is counted. Safe against a concurrent Unsubscribe.
func (s *Subscription) deliver(u Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.ch <- u:
		return
	default:
	}
	select {
	case <-s.ch:
		s.dropped.Add(1)
	default:
	}
	select {
	case s.ch <- u:
	default:
		// The consumer raced us for the freed slot; count the loss.
		s.dropped.Add(1)
	}
}

// close marks the subscription dead and closes the channel. deliver holds
// the same mutex, so no send can race the close.
func (s *Subscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// NewLooseSubscription creates a Subscription bound to no Engine: the same
// bounded drop-oldest delivery channel, but fed by an external producer
// (internal/topo's structural engines) via Deliver and retired via Retire.
// The producer keeps its own node filter (loose subscriptions have no
// overlay reader slots to resolve against); consumers see the identical
// Updates/Dropped surface either way, which is what lets the session layer
// hand both kinds through one code path.
func NewLooseSubscription(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 16
	}
	return &Subscription{ch: make(chan Update, buffer)}
}

// Deliver enqueues u from an external producer, with the same non-blocking
// drop-oldest semantics as engine fan-out. Intended for loose
// subscriptions; delivering to an engine-owned subscription is harmless but
// bypasses the per-reader ordering contract.
func (s *Subscription) Deliver(u Update) { s.deliver(u) }

// Retire marks a loose subscription dead and closes its channel.
// Idempotent. Engine-owned subscriptions are retired via Unsubscribe
// instead, which also removes them from the fan-out table.
func (s *Subscription) Retire() { s.close() }

// notifyTable is the engine's immutable subscriber snapshot, derived from
// Engine.subs and swapped copy-on-write under Engine.subMu. The write hot
// path loads it with one atomic pointer read; it is nil whenever no
// subscription covers a reader (tableOf), so unsubscribed engines pay a
// single predictable branch per write.
type notifyTable struct {
	// byTag lists, per query tag, the subscriptions covering every reader
	// of that tag's view (the whole engine on single-query engines, where
	// every reader carries tag 0); byRef those restricted to specific
	// reader slots, slot r's at byRef[byRefOff[r]:byRefOff[r+1]] (CSR, in
	// subscription order). byRefOff is indexed by overlay slot and as long as
	// the highest subscribed slot requires (use at, which bounds-checks), so
	// the fan-out skips a reader nobody listens to with one array test.
	byTag    map[int32][]*Subscription
	byRefOff []int32
	byRef    []*Subscription
}

// at returns the subscriptions restricted to reader slot ref, nil when
// there are none.
func (nt *notifyTable) at(ref overlay.NodeRef) []*Subscription {
	if ref < 0 || int(ref) >= len(nt.byRefOff)-1 || nt.byRefOff[ref] == nt.byRefOff[ref+1] {
		return nil
	}
	return nt.byRef[nt.byRefOff[ref]:nt.byRefOff[ref+1]]
}

// without returns subs minus sub (nil when nothing is left).
func without(subs []*Subscription, sub *Subscription) []*Subscription {
	var kept []*Subscription
	for _, s := range subs {
		if s != sub {
			kept = append(kept, s)
		}
	}
	return kept
}

// Subscribe registers a continuous-query listener with a bounded buffer
// (buffer < 1 defaults to 16). With no nodes, the subscription covers every
// reader of the engine; otherwise only the standing queries at the given
// data-graph nodes. A node without a reader in the overlay returns
// ErrUnknownNode.
//
// Updates are produced on the compiled push path: a write (or time-window
// expiry) that reaches a push-annotated reader's slot emits that reader's
// refreshed result. Pull-annotated readers change value implicitly and are
// not notified; continuous queries compile all-push, so for them coverage
// is complete. Cancel with Unsubscribe; ingest never blocks on a slow
// consumer (drop-oldest, see Subscription).
func (e *Engine) Subscribe(buffer int, nodes ...graph.NodeID) (*Subscription, error) {
	return e.SubscribeTagged(0, buffer, nodes...)
}

// SubscribeTagged is Subscribe for query tag's reader view of a merged
// multi-query overlay: with no nodes it covers every reader the tag owns
// (never another query's readers, even though they share the engine);
// otherwise only the tag's standing queries at the given data-graph nodes.
func (e *Engine) SubscribeTagged(tag int32, buffer int, nodes ...graph.NodeID) (*Subscription, error) {
	if buffer < 1 {
		buffer = 16
	}
	sub := &Subscription{tag: tag, ch: make(chan Update, buffer)}
	// The plan is loaded under subMu, which a Rebuild holds from re-resolving
	// the installed subscriptions until it publishes its renumbered plan.
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if len(nodes) > 0 {
		pl := e.state.Load().plan
		sub.nodes = append([]graph.NodeID(nil), nodes...)
		for _, v := range nodes {
			if pl.reader(tag, v) == overlay.NoNode {
				return nil, fmt.Errorf("exec: subscribe node %d: %w", v, ErrUnknownNode)
			}
		}
		sub.resolve(pl)
	}
	e.subs = append(e.subs, sub)
	e.notify.Store(tableOf(e.subs))
	return sub, nil
}

// resolve derives a node-restricted subscription's reader slots from its
// (tag, nodes) against pl; nodes without a reader there are left out.
func (s *Subscription) resolve(pl *plan) {
	s.refs = s.refs[:0]
	for _, v := range s.nodes {
		if rref := pl.reader(s.tag, v); rref != overlay.NoNode {
			s.refs = append(s.refs, rref)
		}
	}
	slices.Sort(s.refs)
	s.refs = slices.Compact(s.refs)
}

// tableOf derives the subscriber table from subs, each resolved against the
// plan the table will serve. It is the one derivation — Subscribe,
// Unsubscribe and Rebuild all publish what it returns — and a fresh table
// shares nothing with a published one. It returns nil when no subscription
// covers a reader, so the write path skips fan-out entirely.
func tableOf(subs []*Subscription) *notifyTable {
	var nt *notifyTable
	n := 0 // slots byRefOff covers
	for _, sub := range subs {
		if sub.nodes != nil && len(sub.refs) == 0 {
			continue
		}
		if nt == nil {
			nt = &notifyTable{byTag: map[int32][]*Subscription{}}
		}
		if sub.nodes == nil {
			nt.byTag[sub.tag] = append(nt.byTag[sub.tag], sub)
		} else {
			n = max(n, int(sub.refs[len(sub.refs)-1])+1)
		}
	}
	if n == 0 {
		return nt
	}
	// Count per slot, sum to each slot's end, then place back to front so
	// every slot ends at its start and keeps the subscriptions' order.
	nt.byRefOff = make([]int32, n+1)
	for _, sub := range subs {
		for _, ref := range sub.refs {
			nt.byRefOff[ref]++
		}
	}
	for i := 1; i <= n; i++ {
		nt.byRefOff[i] += nt.byRefOff[i-1]
	}
	nt.byRef = make([]*Subscription, nt.byRefOff[n])
	for _, sub := range slices.Backward(subs) {
		for _, ref := range sub.refs {
			nt.byRefOff[ref]--
			nt.byRef[nt.byRefOff[ref]] = sub
		}
	}
	return nt
}

// Unsubscribe removes the subscription and closes its channel. Idempotent;
// safe to call concurrently with writes (an in-flight fan-out that already
// snapshotted the old table delivers nothing to a closed subscription).
func (e *Engine) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	e.subMu.Lock()
	e.subs = without(e.subs, sub)
	e.notify.Store(tableOf(e.subs))
	e.subMu.Unlock()
	sub.close()
}

// Subscribers reports the number of live subscriptions (for stats).
func (e *Engine) Subscribers() int {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	return len(e.subs)
}

// deliverReader finalizes reader slot ref's settled value and hands it to
// every subscription covering it — byTag, the query-wide listeners of the
// reader's tag (resolved by the caller), plus the node-restricted ones on
// its slot. It runs only when at least one subscription exists (the caller
// checks the atomic table first) and finalizes the reader once no matter how
// many subscriptions cover it; it is a no-op when nothing covers the reader.
//
// Finalize and deliver happen under the reader's node mutex: concurrent
// Applies touching the same reader therefore deliver in a consistent
// per-reader order, and the last update a subscriber sees always reflects
// the reader's settled value once writes quiesce. The lock is per touched
// reader and only taken when a subscription exists, so the unsubscribed
// path is unaffected. ref must be push-annotated in st: flushTouches takes
// it from the collector filled against st's own plan in the same gate
// section.
func (e *Engine) deliverReader(nt *notifyTable, st *engineState, byTag []*Subscription, ref overlay.NodeRef, gid graph.NodeID, ts int64) {
	byRef := nt.at(ref)
	if len(byTag) == 0 && len(byRef) == 0 {
		return
	}
	ns := st.nodes[ref]
	ns.mu.Lock()
	var res agg.Result
	if e.scalar != nil {
		cell := &st.scalars[ref]
		res = e.scalar.FinalizeScalar(cell.sum.Load(), cell.cnt.Load())
	} else {
		res = finalizePAO(st.paos[ref], nil)
	}
	u := Update{Node: gid, Result: res, TS: ts}
	for _, s := range byTag {
		s.deliver(u)
	}
	for _, s := range byRef {
		s.deliver(u)
	}
	ns.mu.Unlock()
}
