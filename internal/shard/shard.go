// Package shard is EAGr's first scale-out layer: a coordinator that
// partitions one logical session across N shards and answers reads by
// merging per-shard partial aggregates.
//
// # Partitioning
//
// Content is hash-partitioned by writer: a write on node v goes only to
// Owner(v)'s shard. Structure is replicated: every structural event (edge
// add/remove, node add/remove) fans out to every shard, so all shards hold
// identical copies of the graph and of every query's compiled overlay.
// Replication makes the content partition exact rather than approximate:
// each shard's standing query at v aggregates the in-window content of
// exactly the writers that shard owns (non-owned writers exist in the
// overlay but their windows stay empty), so the shards' partial aggregates
// for v partition the single-process PAO and merge losslessly — sums add,
// frequency maps add, max-of-maxes is max. Structural replication also
// keeps NodeAdd deterministic: the graph's free-list allocator reuses ids
// in a fixed order, so replaying the same structural stream allocates the
// same ids on every shard (and on a never-sharded oracle).
//
// # Time
//
// A query's time window is defined over the one combined stream, so the
// fleet has one clock: the coordinator's stream time, the largest timestamp
// among the events it has routed (after stamping the timestamp-less ones,
// so every shard lives in one time domain). After every acknowledged Apply
// the coordinator closes time on every shard at that stream time, exactly
// where a single process fed the same stream would close it.
//
// Shards never expire windows on their own. Each sees only a slice of the
// stream, so a time it closed itself would be a different horizon from its
// peers': a shard that applied its slice of a half-failed Apply would sit
// ahead of the shards that did not.
//
// # Reads
//
// A read scatter-gathers: each shard exports its un-finalized partial
// aggregate as an agg.WirePAO, and the coordinator merges the snapshots
// through the ordinary Merge/Finalize path (agg.MergeWires). Every built-in
// aggregate except topk~ answers exactly as a single process would; topk~'s
// bounded candidate list is admission-order dependent, so its sharded
// answers are approximate in a different way than its single-process ones.
// Topology-valued queries (density, triangles, …) read without merging:
// they depend only on structure, which is replicated, so any single shard's
// value is already the exact cluster-wide answer.
//
// # One coordinator, two kinds of shard
//
// Every rule above is written once, in Coordinator, against the Shard
// interface. A Cluster (Open) runs it over Sessions in this process;
// cmd/eagr-router runs it over eagr-serve processes (HTTPShard). What the
// -race oracle tests prove about one is therefore true of the other.
//
// The replication invariant can break: a fan-out that carries structure may
// apply on some shards and fail on others. The coordinator cannot undo the
// half that applied, so it records the first such failure (Divergence) and
// from then on every read fails with ErrDiverged instead of merging
// replicas that no longer agree.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	eagr "repro"
	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/topo"
)

// Owner maps a writer node to its owning shard with a splitmix64 hash —
// stateless, so routers and clusters never exchange placement metadata.
func Owner(v graph.NodeID, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// Shard is one member of the fleet as the coordinator drives it. It hides
// whether the member is a Session in this process or a server across HTTP,
// and lets a test substitute one that fails.
//
// An error wrapping ErrUnavailable means the shard could not be reached or
// broke while answering, so nothing is known about what it did. Any other
// error is the shard's verdict (unknown node, retired query, rejected
// spec), which every replica shares.
type Shard interface {
	// Register compiles the standing query on this shard.
	Register(spec eagr.QuerySpec, opts ...eagr.Options) (Member, error)
	// Apply hands over the shard's slice of one fan-out, in stream order,
	// and returns once it has been applied. Events that cannot apply (an
	// existing edge added, a dead node removed) are skipped, identically on
	// every replica and on a never-sharded session; that is not a failure.
	// Apply is attempted once: a second attempt after a lost
	// acknowledgement would apply the events twice.
	Apply(events []eagr.Event) error
	// Mutate applies one structural event outside the stream and returns
	// its verdict and, for a node-add, the allocated id. Attempted once.
	Mutate(ev eagr.Event) (graph.NodeID, error)
	// Expire advances the shard's time-based windows to ts. Expiry only
	// ratchets forward, so implementations may retry it.
	Expire(ts int64) error
}

// Member is one shard's copy of a registered query; an *eagr.Query is one.
// Reads may be retried by the implementation, Close may not.
type Member interface {
	ID() int
	// Read returns the finalized value (topology-valued queries).
	Read(v graph.NodeID) (eagr.Result, error)
	// ReadWire returns the un-finalized partial aggregate, a merge input.
	ReadWire(v graph.NodeID) (agg.WirePAO, error)
	Close() error
}

// ErrUnavailable marks a Shard failure that is not a verdict; see Shard.
var ErrUnavailable = errors.New("shard: unavailable")

// ErrDiverged matches (errors.Is) the error of every read once the
// replicas are known to disagree; the error itself is the *Divergence.
var ErrDiverged = errors.New("shard: replicas diverged")

// Divergence records the fan-out that broke the replication invariant.
type Divergence struct {
	Shard int    // the lowest-indexed shard that disagreed
	Op    string // "apply", or the structural event kind of a Mutate
	Err   error
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("%v: %s on shard %d: %v", ErrDiverged, d.Op, d.Shard, d.Err)
}

// Is makes errors.Is(err, ErrDiverged) hold.
func (d *Divergence) Is(target error) bool { return target == ErrDiverged }

// Coordinator makes the fleet's decisions: content to its owner, structure
// to everyone in one order, one clock that closes time on every shard,
// queries on all shards or none, partial aggregates merged once.
// All methods are safe for concurrent use.
type Coordinator struct {
	shards []Shard
	clock  eagr.Clock

	// mu serializes fan-outs: structural events must interleave identically
	// on every shard or the replicas (and their node-id allocators) drift.
	// Two fan-outs never overlap; only the shards within one run in
	// parallel. It also guards closed.
	mu     sync.Mutex
	closed int64 // the furthest time an Expire fan-out closed on every shard

	streamTS atomic.Int64
	diverged atomic.Pointer[Divergence]

	qmu     sync.Mutex
	queries map[int]*Query
	nextID  int
}

// NewCoordinator coordinates the given shards (at least one), which must
// hold the same graph and expire windows only when told to. clock stamps
// events that carry no timestamp; nil stamps them with stream time (see
// StreamTime), for streams whose time domain only their producers know.
func NewCoordinator(shards []Shard, clock eagr.Clock) *Coordinator {
	return &Coordinator{shards: shards, clock: clock, queries: map[int]*Query{}}
}

// StreamTime is the fleet's time: the largest timestamp, explicit or
// stamped, among the events of Applys that every shard involved
// acknowledged; zero, the unstamped sentinel, until one carried a
// timestamp. A rejected or half-failed Apply leaves it alone, so one bad
// far-future timestamp in a refused request cannot pull every later
// timestamp-less event into the future.
func (c *Coordinator) StreamTime() int64 { return c.streamTS.Load() }

// Diverged returns the recorded Divergence, or nil while the replicas are
// not known to disagree.
func (c *Coordinator) Diverged() *Divergence { return c.diverged.Load() }

// fanout runs fn for every shard concurrently and waits for all of them, so
// a fan-out costs the slowest shard rather than the sum. The caller holds
// c.mu, which is what keeps every shard's view of the stream in one order.
func (c *Coordinator) fanout(fn func(i int, s Shard) error) []error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i+1] = fn(i+1, s)
		}()
	}
	errs[0] = fn(0, c.shards[0])
	wg.Wait()
	return errs
}

// settle is the outcome of one fan-out: nil when every shard succeeded,
// else the lowest-indexed failure, so attribution is deterministic. When
// the fan-out replicated structure and only some shards failed, the
// replicas now differ; the first such failure sticks as the Divergence.
func (c *Coordinator) settle(op string, replicated bool, errs []error) error {
	first, failed := -1, 0
	for i, err := range errs {
		if err != nil {
			if failed++; first < 0 {
				first = i
			}
		}
	}
	if first < 0 {
		return nil
	}
	if replicated && failed < len(errs) {
		c.diverged.CompareAndSwap(nil, &Divergence{Shard: first, Op: op, Err: errs[first]})
	}
	return fmt.Errorf("shard %d: %s: %w", first, op, errs[first])
}

// Apply routes one batch — content to its owner's shard, structural events
// to every shard — under one hold of the routing lock, so the batch lands
// as a contiguous run in every shard's order. Once every shard has applied
// its slice, the batch's timestamps fold into stream time and every shard
// expires to it; Apply returns that watermark, nil while the fleet has no
// time. An error means some shard failed; the others may have applied
// theirs. A failed expiry is retried by the next Apply.
func (c *Coordinator) Apply(events []eagr.Event) (*int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	parts := make([][]eagr.Event, len(c.shards))
	now, replicated := c.streamTS.Load(), false
	for _, ev := range events {
		// Stamp here, not on the shards: each sees a slice of the stream,
		// so its own notion of "now" lags and replicas would disagree on
		// the timestamp of a fanned-out structural event.
		if ev.TS == 0 {
			if c.clock != nil {
				ev.TS = c.clock.Now()
			} else {
				ev.TS = now
			}
		}
		now = max(now, ev.TS)
		if !ev.IsStructural() {
			i := Owner(ev.Node, len(parts))
			parts[i] = append(parts[i], ev)
			continue
		}
		replicated = true
		for i := range parts {
			parts[i] = append(parts[i], ev)
		}
	}
	errs := c.fanout(func(i int, s Shard) error {
		if len(parts[i]) == 0 {
			return nil
		}
		return s.Apply(parts[i])
	})
	if err := c.settle("apply", replicated, errs); err != nil {
		return nil, err
	}
	c.streamTS.Store(now)
	if now == 0 {
		return nil, nil
	}
	if now <= c.closed {
		return &now, nil
	}
	return &now, c.expire(now)
}

// Mutate applies one structural event on every shard and returns their
// common verdict (for a node-add, the id they all allocated). Shards that
// disagree — on whether it applied, or on the id — have diverged.
func (c *Coordinator) Mutate(ev eagr.Event) (graph.NodeID, error) {
	if !ev.IsStructural() {
		return 0, fmt.Errorf("shard: %s is not a structural event", ev.Kind)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]graph.NodeID, len(c.shards))
	errs := c.fanout(func(i int, s Shard) (err error) {
		ids[i], err = s.Mutate(ev)
		return err
	})
	for i, id := range ids {
		if errs[i] == nil && errs[0] == nil && id != ids[0] {
			errs[i] = fmt.Errorf("allocated node %d where shard 0 allocated %d", id, ids[0])
		}
	}
	return ids[0], c.settle(ev.Kind.String(), true, errs)
}

// Expire advances every shard's time-based windows to ts.
func (c *Coordinator) Expire(ts int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expire(ts)
}

// expire fans ts out and, once every shard has closed it, remembers it so
// Apply skips advances that close nothing new. The caller holds c.mu.
func (c *Coordinator) expire(ts int64) error {
	err := c.settle("expire", false, c.fanout(func(_ int, s Shard) error { return s.Expire(ts) }))
	if err == nil {
		c.closed = max(c.closed, ts)
	}
	return err
}

// Register registers the query on every shard, or on none: when a shard
// refuses, the copies already registered are retired, because shard query
// sets must stay identical or reads would merge mismatched views. Compile
// options follow the Session semantics (a per-call value overrides the
// shard's default).
func (c *Coordinator) Register(spec eagr.QuerySpec, opts ...eagr.Options) (*Query, error) {
	q := &Query{c: c, name: spec.Aggregate}
	if q.name == "" {
		q.name = "sum"
	}
	var err error
	// A topology-valued aggregate has no PAO: agg stays nil, reads skip the
	// merge, and the per-shard Register validates the spec.
	if q.agg, err = agg.Parse(q.name); err != nil {
		if _, terr := topo.Parse(q.name); terr != nil {
			return nil, fmt.Errorf("%w: %w", eagr.ErrIncompatibleQuery, err)
		}
	}
	for i, s := range c.shards {
		m, err := s.Register(spec, opts...)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("shard %d: %w", i, err), q.retire())
		}
		q.members = append(q.members, m)
	}
	c.qmu.Lock()
	defer c.qmu.Unlock()
	q.id = c.nextID
	c.nextID++
	c.queries[q.id] = q
	return q, nil
}

// Query returns the open handle with the given id, or nil.
func (c *Coordinator) Query(id int) *Query {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.queries[id]
}

// Queries returns the open merged-read handles (unordered).
func (c *Coordinator) Queries() []*Query {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	out := make([]*Query, 0, len(c.queries))
	for _, q := range c.queries {
		out = append(out, q)
	}
	return out
}

// Query is a standing query registered on every shard, answered by merging
// the shards' wire snapshots.
type Query struct {
	c       *Coordinator
	id      int
	name    string         // spec.Aggregate, defaulted
	agg     eagr.Aggregate // nil for topology-valued queries
	members []Member
}

// ID returns the coordinator-local query id.
func (q *Query) ID() int { return q.id }

// Aggregate returns the aggregate's name ("sum" when the spec named none).
func (q *Query) Aggregate() string { return q.name }

// Topo reports a topology-valued query, read from one shard unmerged.
func (q *Query) Topo() bool { return q.agg == nil }

// ShardIDs returns the query's id on each shard, by shard index: shards
// assign their own ids, the coordinator owns the mapping.
func (q *Query) ShardIDs() []int {
	ids := make([]int, len(q.members))
	for i, m := range q.members {
		ids[i] = m.ID()
	}
	return ids
}

// ShardQuery exposes shard i's member query on an in-process Cluster
// (diagnostics and tests); nil when the shard is not a local Session.
func (q *Query) ShardQuery(i int) *eagr.Query {
	sq, _ := q.members[i].(*eagr.Query)
	return sq
}

// Read scatter-gathers the standing query at v: one wire snapshot per
// shard, merged and finalized through the single-process aggregate path.
// Topology-valued queries skip the merge — structural replication keeps
// every shard's value exact — and fall through to the next replica only
// when a shard is unavailable; a verdict is every replica's.
func (q *Query) Read(v graph.NodeID) (eagr.Result, error) {
	if d := q.c.diverged.Load(); d != nil {
		return eagr.Result{}, d
	}
	if q.agg == nil {
		var err error
		for i, m := range q.members {
			var res eagr.Result
			if res, err = m.Read(v); err == nil {
				return res, nil
			}
			if err = fmt.Errorf("shard %d: %w", i, err); !errors.Is(err, ErrUnavailable) {
				break
			}
		}
		return eagr.Result{}, err
	}
	ws := make([]agg.WirePAO, len(q.members))
	for i, m := range q.members {
		var err error
		if ws[i], err = m.ReadWire(v); err != nil {
			return eagr.Result{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return agg.MergeWires(q.agg, ws)
}

// Close retires the query: the coordinator forgets it first, so it is never
// listed or read half-retired, then every shard is asked to retire its copy
// and the failures are joined.
func (q *Query) Close() error {
	q.c.qmu.Lock()
	delete(q.c.queries, q.id)
	q.c.qmu.Unlock()
	return q.retire()
}

func (q *Query) retire() error {
	var errs []error
	for i, m := range q.members {
		if err := m.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
