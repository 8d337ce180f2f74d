package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/graph"
)

// ErrDetached reports an operation on an attachment that was already
// detached from its MultiSystem.
var ErrDetached = errors.New("query detached")

// MultiSystem hosts any number of standing queries over ONE shared data
// graph, the unit of optimization the paper argues for (§1, §3). Sharing
// happens at two levels:
//
//   - Exact sharing: attachments with identical full compile configuration
//     (equal non-empty keys) reference one member of one compiled System;
//     the Nth identical registration costs nothing.
//   - Merge families: attachments with the same aggregate/window/mode
//     semantics (equal non-empty family keys) but DIFFERENT neighborhoods,
//     hop depths, or reader predicates are compiled together into ONE
//     merged overlay over the union of their query sets — the paper's
//     cross-query sharing of partial aggregates — each reading through its
//     own per-query view. Members join an existing family incrementally
//     (the overlay is extended online) and leave one by one (their readers
//     are retired online); the family's overlay is torn down when the last
//     member detaches.
//
// Incompatible queries get their own system over the same graph. Content
// writes fan out to every system; structural changes mutate the graph
// exactly once and repair every overlay.
//
// Concurrency: Attach/Detach and the structural mutators serialize on the
// MultiSystem mutex. Apply and Rebalance run against an atomically
// swapped snapshot of the attached systems, so ingest keeps flowing while
// queries come and go; each system keeps one engine for life, so a write
// fanned out while a system recompiles lands on the engine that recompile
// republishes (exec.Engine.Rebuild), never on a discarded one.
type MultiSystem struct {
	mu sync.Mutex

	g *graph.Graph
	// members indexes every live attachment group by its full compile key;
	// families indexes the open (extendable) merge family per family key.
	// A family superseded for capacity stays alive through its members but
	// is no longer joined.
	members  map[string]*familyMember
	families map[string]*family
	// systems is the lock-free fan-out snapshot: one entry per live
	// compiled system, rebuilt under mu whenever the system set changes.
	systems atomic.Pointer[[]*System]
	// nextAnon disambiguates attachments that must never share.
	nextAnon int
	// listeners is the structural-listener fan-out snapshot (see
	// StructuralListener), swapped copy-on-write under mu and loaded
	// lock-free by the mutation and expiry paths.
	listeners atomic.Pointer[[]StructuralListener]
	// overflows counts registrations that found their merge family at
	// member capacity and had to open a fresh overlay instead of joining
	// the shared one (the 64-member tag-space cap).
	overflows atomic.Int64
	// mined counts the overlay constructions run for attached systems
	// (registrations and recompiles), cloned the ones a same-shape sibling's
	// overlay made unnecessary (System.cloneSibling).
	mined, cloned atomic.Int64
}

// family is one compiled System together with its member bookkeeping.
type family struct {
	key  string // family key; "" = never merged into
	sys  *System
	live int // live members (distinct full keys)
}

// familyMember is one full-key group inside a family: every attachment with
// this exact configuration shares the member (and its view tag).
type familyMember struct {
	fam     *family
	fullKey string
	tag     int32
	refs    int
}

// Attachment is one query's handle into a MultiSystem. Multiple attachments
// may share one member (exact sharing), and multiple members one System
// (merge-family sharing); Detach releases the reference, retiring the
// member when its last attachment leaves and tearing the system down when
// the last member does.
type Attachment struct {
	m  *MultiSystem
	fm *familyMember
	// sys and tag are fm.fam.sys and fm.tag, fixed for the attachment's
	// lifetime and kept flat here because every read goes through them.
	sys *System
	tag int32
	// detached is atomic so System() stays lock-free for readers racing a
	// Detach (they observe either the live system or nil, never a torn
	// state).
	detached atomic.Bool
}

// NewMulti returns an empty multi-query system over g. The graph is
// retained, not copied; all structural changes must go through the
// MultiSystem's mutators.
func NewMulti(g *graph.Graph) *MultiSystem {
	m := &MultiSystem{
		g:        g,
		members:  map[string]*familyMember{},
		families: map[string]*family{},
	}
	m.systems.Store(&[]*System{})
	m.listeners.Store(&[]StructuralListener{})
	return m
}

// StructuralListener observes the shared graph's structure stream: it is
// invoked once per SUCCESSFUL structural mutation (failed events — dup
// edges, dead nodes — notify nobody), in event order, under the structural
// mutation lock, and never otherwise: neither content writes nor advances
// of time reach it. This is the hook that lets structure-consuming
// subsystems (topology-valued aggregates) ride the same single
// graph-mutation path the overlay repair uses. Callbacks must not re-enter
// the MultiSystem's mutators and must not block: they run inside the
// ingestion path.
type StructuralListener interface {
	// EdgeAdded / EdgeRemoved report a directed edge u→w that was actually
	// inserted into / deleted from the graph, with the event's timestamp.
	EdgeAdded(u, w graph.NodeID, ts int64)
	EdgeRemoved(u, w graph.NodeID, ts int64)
	// NodeAdded reports a freshly allocated node id; NodeRemoved a node
	// deletion AFTER the graph dropped it and its incident edges (listeners
	// needing the incident edges keep their own mirror).
	NodeAdded(v graph.NodeID, ts int64)
	NodeRemoved(v graph.NodeID, ts int64)
}

// AttachStructuralListener installs the listener build returns. build runs
// with the shared graph under the structural mutation lock, so the snapshot
// it takes and the event stream the listener subsequently observes are
// gap-free and overlap-free — the listener's state starts exactly current.
func (m *MultiSystem) AttachStructuralListener(build func(g *graph.Graph) StructuralListener) StructuralListener {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := build(m.g)
	if l == nil {
		return nil
	}
	prev := *m.listeners.Load()
	next := make([]StructuralListener, 0, len(prev)+1)
	next = append(next, prev...)
	next = append(next, l)
	m.listeners.Store(&next)
	return l
}

// DetachStructuralListener removes a previously attached listener.
func (m *MultiSystem) DetachStructuralListener(l StructuralListener) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := *m.listeners.Load()
	next := make([]StructuralListener, 0, len(prev))
	for _, x := range prev {
		if x != l {
			next = append(next, x)
		}
	}
	m.listeners.Store(&next)
}

// Attach registers a query with exact sharing only: attachments with equal
// non-empty keys share one compiled System; an empty key never shares. It
// is AttachMerged without a family key.
func (m *MultiSystem) Attach(key string, q Query, opts Options) (*Attachment, error) {
	return m.AttachMerged(key, "", q, opts)
}

// AttachMerged registers a query. key identifies the query's full compile
// configuration: attachments with equal non-empty keys share one compiled
// member for free. familyKey identifies the mergeable semantics (aggregate,
// window, mode — everything but the neighborhood/reader set): when
// non-empty and a family with that key is open, the query joins it as a new
// member of the MERGED overlay (compiled over the union of the family's
// query sets, online where the overlay supports incremental maintenance)
// instead of compiling its own. The query's Neighborhood and Predicate
// define its member view. An empty key never shares at all.
func (m *MultiSystem) AttachMerged(key, familyKey string, q Query, opts Options) (*Attachment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key == "" {
		m.nextAnon++
		key = fmt.Sprintf("\x00anon-%d", m.nextAnon)
		familyKey = ""
	}
	if fm, ok := m.members[key]; ok {
		fm.refs++
		return m.attachment(fm), nil
	}
	if familyKey != "" {
		if fam, ok := m.families[familyKey]; ok {
			tag, err := fam.sys.addMember(MemberSpec{
				Neighborhood: q.Neighborhood,
				Predicate:    q.Predicate,
			})
			switch {
			case err == nil:
				fm := &familyMember{fam: fam, fullKey: key, tag: tag, refs: 1}
				fam.live++
				m.members[key] = fm
				return m.attachment(fm), nil
			case errors.Is(err, errMergeFull):
				// Family at capacity: open a fresh one below. The full
				// family stays reachable through its members; count the
				// overflow so operators can see sharing degrade.
				m.overflows.Add(1)
			default:
				return nil, err
			}
		}
	}
	sys, err := compileSystem(m, q, opts)
	if err != nil {
		return nil, err
	}
	fam := &family{key: familyKey, sys: sys, live: 1}
	if familyKey != "" {
		m.families[familyKey] = fam
	}
	fm := &familyMember{fam: fam, fullKey: key, tag: 0, refs: 1}
	m.members[key] = fm
	m.publishLocked()
	return m.attachment(fm), nil
}

// attachment wraps one more reference on fm; callers hold m.mu.
func (m *MultiSystem) attachment(fm *familyMember) *Attachment {
	return &Attachment{m: m, fm: fm, sys: fm.fam.sys, tag: fm.tag}
}

// Detach releases the attachment's reference. The last detach of a member
// retires its view from the family's merged overlay; the last member's
// detach discards the compiled system. Idempotent per attachment.
func (m *MultiSystem) Detach(a *Attachment) error {
	if a == nil || a.m != m {
		return fmt.Errorf("core: %w", ErrDetached)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.detached.Swap(true) {
		return fmt.Errorf("core: %w", ErrDetached)
	}
	fm := a.fm
	fm.refs--
	if fm.refs > 0 {
		return nil
	}
	delete(m.members, fm.fullKey)
	fam := fm.fam
	fam.live--
	if fam.live == 0 {
		if fam.key != "" && m.families[fam.key] == fam {
			delete(m.families, fam.key)
		}
		m.publishLocked()
		return nil
	}
	return fam.sys.retireMember(fm.tag)
}

// publishLocked rebuilds the fan-out snapshot; callers hold m.mu.
func (m *MultiSystem) publishLocked() {
	seen := map[*System]bool{}
	list := make([]*System, 0, len(m.members))
	for _, fm := range m.members {
		if !seen[fm.fam.sys] {
			seen[fm.fam.sys] = true
			list = append(list, fm.fam.sys)
		}
	}
	m.systems.Store(&list)
}

// System returns the attachment's compiled system (shared with every other
// attachment in its member and family), or nil after Detach.
func (a *Attachment) System() *System {
	if a.detached.Load() {
		return nil
	}
	return a.sys
}

// ViewTag returns the attachment's member view tag within its (possibly
// merged) system: the tag its reads and subscriptions address on the
// system's engine (exec.Engine.ReadTagged / SubscribeTagged).
func (a *Attachment) ViewTag() int32 { return a.tag }

// The methods below are the attachment's own standing-query surface: each
// addresses exactly this member's view of the (possibly merged) system. None
// consults the detached flag — system and tag are immutable and the tag
// resolves through the engine's immutable plan snapshot, so a call racing
// (or following) Detach answers from the retired view or errors, and
// Unsubscribe still reaches the system's one engine. Callers that must refuse
// retired queries gate on their own flag (eagr.Query does).

// Read evaluates this member's standing query at v.
func (a *Attachment) Read(v graph.NodeID) (agg.Result, error) {
	return a.sys.eng.ReadTagged(a.tag, v)
}

// ReadInto is Read with a caller-provided result: list-valued aggregates
// (TOP-K) reuse res.List's backing array, so a caller that retains res
// across calls reads without allocating.
func (a *Attachment) ReadInto(v graph.NodeID, res *agg.Result) error {
	return a.sys.eng.ReadTaggedInto(a.tag, v, res)
}

// ReadWire evaluates this member's standing query at v and returns the
// un-finalized partial aggregate as a wire snapshot (see
// exec.Engine.ReadTaggedWire) — the per-shard half of a cross-shard read.
func (a *Attachment) ReadWire(v graph.NodeID) (agg.WirePAO, error) {
	return a.sys.eng.ReadTaggedWire(a.tag, v)
}

// Covered reports whether this member's result at v is push-maintained —
// i.e. whether a subscription on v observes updates.
func (a *Attachment) Covered(v graph.NodeID) bool {
	return a.sys.eng.CoveredTagged(a.tag, v)
}

// Subscribe registers a continuous listener on this member's reader view:
// with no nodes it covers every reader the member owns (never a sibling
// member's), otherwise only the member's standing queries at the given
// nodes. Like reads it does not wait for overlay repairs or recompiles: a
// subscription installed while one runs is re-resolved against the new
// plan by the engine itself (see exec.Engine.SubscribeTagged).
func (a *Attachment) Subscribe(buffer int, nodes ...graph.NodeID) (*exec.Subscription, error) {
	return a.sys.eng.SubscribeTagged(a.tag, buffer, nodes...)
}

// Unsubscribe removes sub from the system's engine and closes its channel.
func (a *Attachment) Unsubscribe(sub *exec.Subscription) { a.sys.eng.Unsubscribe(sub) }

// OwnReaders counts the reader nodes this member's view owns, from the
// engine's immutable plan snapshot — O(1) (precomputed at Flatten), no
// lock, safe concurrently with structural repairs.
func (a *Attachment) OwnReaders() int {
	return a.sys.eng.Topology().TagReaders[a.tag]
}

// Detach is MultiSystem.Detach on the attachment's own system.
func (a *Attachment) Detach() error { return a.m.Detach(a) }

// Shared reports how many attachments currently share this attachment's
// exact member (identical configurations).
func (a *Attachment) Shared() int {
	a.m.mu.Lock()
	defer a.m.mu.Unlock()
	return a.fm.refs
}

// FamilySize reports how many distinct member queries share this
// attachment's compiled system through its merge family (1 when unmerged).
func (a *Attachment) FamilySize() int {
	a.m.mu.Lock()
	defer a.m.mu.Unlock()
	return a.fm.fam.live
}

// Graph returns the shared data graph.
func (m *MultiSystem) Graph() *graph.Graph { return m.g }

// NumGroups returns the number of distinct compiled systems (shared query
// groups / merge families) currently attached.
func (m *MultiSystem) NumGroups() int {
	return len(*m.systems.Load())
}

// NumMergedFamilies returns the number of compiled systems hosting more
// than one member query (active merged overlays), and NumMergedQueries the
// member queries they host in total.
func (m *MultiSystem) NumMergedFamilies() (families, queries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[*family]bool{}
	for _, fm := range m.members {
		if !seen[fm.fam] && fm.fam.live > 1 {
			seen[fm.fam] = true
			families++
			queries += fm.fam.live
		}
	}
	return families, queries
}

// FamilyOverflows reports how many registrations found their merge family
// at member capacity (maxFamilyViews) and opened a fresh overlay instead
// of joining the shared one. A nonzero value means sharing is degrading:
// identical-semantics queries are splitting across overlays.
func (m *MultiSystem) FamilyOverflows() int64 { return m.overflows.Load() }

// OverlaysMined reports how many overlay constructions the attached systems
// have run, at registration and on every recompile; OverlaysCloned how many
// more were answered by copying a same-shape sibling's overlay mined at the
// same graph version (sum and topk(10) on one graph: one mine, one clone).
func (m *MultiSystem) OverlaysMined() int64  { return m.mined.Load() }
func (m *MultiSystem) OverlaysCloned() int64 { return m.cloned.Load() }

// Systems returns a snapshot of the attached compiled systems, one per
// group.
func (m *MultiSystem) Systems() []*System { return *m.systems.Load() }

// GroupWindows is one compiled system's per-writer window snapshot, keyed
// by the group's canonical identity: the lexicographically smallest member
// full key. Recovery re-registers the same queries in the same order, so
// the same member (and hence the same key) exists on the rebuilt side.
type GroupWindows struct {
	Key     string
	Windows map[graph.NodeID][]agg.WindowEntry
}

// ExportGroupWindows snapshots the per-writer window state of every
// attached system SEPARATELY — windows are not merged across systems,
// because different retention policies (a tuple window vs an
// already-expired time window) mean one system's suffix may contain
// entries another system has legitimately dropped, and replaying the
// longer list would resurrect them. Each window's entry list is the
// contiguous suffix of its writer's insertion sequence that the window
// retains; replaying it through that system's normal write path rebuilds
// its windows, PAOs and scalars exactly. keep selects which member keys
// may serve as a group's identity (nil accepts all): groups with no
// eligible member are skipped entirely, since the recovering side could
// not re-attach them — anonymous (never-shared) members are always
// ineligible. Results are ordered by key.
func (m *MultiSystem) ExportGroupWindows(keep func(fullKey string) bool) []GroupWindows {
	m.mu.Lock()
	defer m.mu.Unlock()
	keyOf := map[*System]string{}
	for fullKey, fm := range m.members {
		if strings.HasPrefix(fullKey, "\x00") || (keep != nil && !keep(fullKey)) {
			continue
		}
		if cur, ok := keyOf[fm.fam.sys]; !ok || fullKey < cur {
			keyOf[fm.fam.sys] = fullKey
		}
	}
	out := make([]GroupWindows, 0, len(keyOf))
	for sys, key := range keyOf {
		gw := GroupWindows{Key: key, Windows: map[graph.NodeID][]agg.WindowEntry{}}
		sys.eng.ExportWindows(func(node graph.NodeID, entries []agg.WindowEntry) {
			gw.Windows[node] = append([]agg.WindowEntry(nil), entries...)
		})
		if len(gw.Windows) > 0 {
			out = append(out, gw)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// InjectGroupWindows replays a checkpointed window suffix into the system
// identified by its canonical group key, through the normal write path.
func (m *MultiSystem) InjectGroupWindows(key string, events []graph.Event) error {
	m.mu.Lock()
	fm, ok := m.members[key]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no attached group %q to inject windows into", key)
	}
	fm.fam.sys.eng.Apply(events, graph.NoAdvance)
	return nil
}

// Rebalance runs the adaptive dataflow scheme (§4.8) on every group and
// returns the total number of decision flips. A group whose pass fails does
// not stop the others: every group is rebalanced and the errors are joined.
// It holds the MultiSystem mutex, as a structural run does: a pass must not
// judge an overlay that a run's maintainer has grown but not yet installed
// (its adaptor is rebuilt only at the run's end).
func (m *MultiSystem) Rebalance() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	var errs []error
	for _, sys := range *m.systems.Load() {
		flips, err := sys.Rebalance()
		errs = append(errs, err)
		total += flips
	}
	return total, errors.Join(errs...)
}

// Apply is the one write path of every attached system: it ingests a mixed
// batch of content and structural events in stream order — the paper's
// single interleaved data stream (§2.1: S_G plus the S_v) — and then closes
// the time the batch closes, advancing every system's time-based windows to
// advanceTo (graph.NoAdvance closes no time; no events is a bare advance).
// It returns the node ids the NodeAdd events allocated, in event order
// (deleted ids are reused, so a caller that needs to address a streamed-in
// node cannot derive its id from the graph size).
//
// Consecutive content writes form a run that goes through each engine's
// serial, notification-coalescing Apply, and the advance rides the batch's
// last run into the same engine section — one walk over the systems, one
// Update per touched reader — unless the batch ends structurally, when it
// follows on its own. Consecutive structural events coalesce into ONE
// graph-mutation pass plus ONE overlay repair and engine republish per
// attached system, instead of a serialized repair per event. Read events are
// skipped.
//
// Events that cannot apply (adding an existing edge, removing a dead node)
// are skipped and their errors joined into the returned error; the rest of
// the batch still applies, and so does the advance. Repair is best-effort
// across groups: one group's failure does not leave the remaining groups
// unrepaired (the graph has already moved).
func (m *MultiSystem) Apply(events []graph.Event, advanceTo int64) ([]graph.NodeID, error) {
	var added []graph.NodeID
	var errs []error
	// Each round applies one structural run, then one content run; the last
	// content run, empty or not, carries the advance.
	for i, last := 0, false; !last; {
		j := i
		for j < len(events) && events[j].IsStructural() {
			j++
		}
		if j > i {
			ids, runErrs := m.applyStructuralRun(events[i:j])
			added = append(added, ids...)
			errs = append(errs, runErrs...)
		}
		i = j
		for j < len(events) && !events[j].IsStructural() {
			j++
		}
		closes := graph.NoAdvance
		if last = j == len(events); last {
			closes = advanceTo
		}
		if j > i || closes != graph.NoAdvance {
			for _, sys := range *m.systems.Load() {
				sys.eng.Apply(events[i:j], closes)
			}
		}
		i = j
	}
	return added, errors.Join(errs...)
}

// applyStructuralRun is the one structural protocol. Under the MultiSystem
// mutex, the shared graph mutates event by event (collecting, at each
// event's correct moment, the readers it affects — pre-mutation for
// removals, post for additions — and notifying listeners), and every
// attached system's overlay is repaired exactly once at the end. It returns
// the node ids NodeAdd events allocated, in event order, and the errors of
// the events that could not apply and of the repairs. Correctness rests on
// the repair being a diff against the FINAL graph: the affected union only
// needs to cover every reader whose neighborhood the run changed, and the
// event that last toggles a neighborhood path sees that path's state when
// it collects.
func (m *MultiSystem) applyStructuralRun(run []graph.Event) ([]graph.NodeID, []error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, systems, listeners := m.g, *m.systems.Load(), *m.listeners.Load()
	batches := make([]*repairBatch, len(systems))
	for i, sys := range systems {
		batches[i] = sys.beginRepairBatch()
	}
	var added []graph.NodeID
	var errs []error
	for _, ev := range run {
		switch ev.Kind {
		case graph.EdgeAdd:
			if err := g.AddEdge(ev.Node, ev.Peer); err != nil {
				errs = append(errs, err)
				continue
			}
			for i, sys := range systems {
				sys.batchEdgeTouched(batches[i], ev.Node, ev.Peer)
			}
			for _, l := range listeners {
				l.EdgeAdded(ev.Node, ev.Peer, ev.TS)
			}
		case graph.EdgeRemove:
			if !g.HasEdge(ev.Node, ev.Peer) {
				// Let the graph produce the precise typed error (dead node
				// vs missing edge); it mutates nothing on failure.
				errs = append(errs, g.RemoveEdge(ev.Node, ev.Peer))
				continue
			}
			for i, sys := range systems {
				sys.batchEdgeTouched(batches[i], ev.Node, ev.Peer)
			}
			if err := g.RemoveEdge(ev.Node, ev.Peer); err != nil {
				errs = append(errs, err)
				continue
			}
			for _, l := range listeners {
				l.EdgeRemoved(ev.Node, ev.Peer, ev.TS)
			}
		case graph.NodeAdd:
			v := g.AddNode()
			added = append(added, v)
			for i, sys := range systems {
				sys.batchNodeAdded(batches[i], v)
			}
			for _, l := range listeners {
				l.NodeAdded(v, ev.TS)
			}
		case graph.NodeRemove:
			if !g.Alive(ev.Node) {
				errs = append(errs, g.RemoveNode(ev.Node)) // precise typed error
				continue
			}
			for i, sys := range systems {
				sys.batchNodeRemovalAffected(batches[i], ev.Node)
			}
			if err := g.RemoveNode(ev.Node); err != nil {
				errs = append(errs, err)
				continue
			}
			for i, sys := range systems {
				sys.batchNodeRemoved(batches[i], ev.Node)
			}
			for _, l := range listeners {
				l.NodeRemoved(ev.Node, ev.TS)
			}
		}
	}
	for i, sys := range systems {
		if err := sys.applyRepairBatch(batches[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return added, errs
}
