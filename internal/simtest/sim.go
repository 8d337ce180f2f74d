package simtest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Kind is an op of the alphabet.
type Kind uint8

const (
	// Batch applies Events through the target's batch entry point; Close
	// asks an entry point that does not close time itself to close it at
	// stream time after the batch.
	Batch Kind = iota
	// Register starts query Slot with Spec; Retire ends it.
	Register
	Retire
	// Subscribe opens a subscription on Slot's readers at Nodes (nil: every
	// node); Unsubscribe cancels it.
	Subscribe
	Unsubscribe
	// NewIngestor replaces the target's Ingestor with a fresh one.
	NewIngestor
	// Rebalance runs the adaptivity pass (§4.8) the autotune loop runs;
	// Reoptimize re-plans every query's decisions.
	Rebalance
	Reoptimize
	// Checkpoint checkpoints a durable target; Crash kills it (N = 1: shuts
	// it down cleanly) and recovers from its directory.
	Checkpoint
	Crash
	// WALFault crashes and recovers a durable target onto a filesystem whose
	// N-th write fails (torn when N is odd): from that write on the log
	// refuses every op, and Run crashes and recovers the target again.
	WALFault
	// ShardFault applies a content-only batch whose apply fails on shard
	// Shard: the other shards apply their events, and fleet time stands.
	ShardFault
)

var kindNames = [...]string{"Batch", "Register", "Retire", "Subscribe", "Unsubscribe", "NewIngestor",
	"Rebalance", "Reoptimize", "Checkpoint", "Crash", "WALFault", "ShardFault"}

func (k Kind) String() string { return kindNames[k] }

// Op is one step of a simulation.
type Op struct {
	Kind   Kind
	Events []graph.Event
	Close  bool
	Slot   int
	Spec   Spec
	Shard  int
	N      int
	Nodes  []NodeID
}

func (op Op) String() string {
	s := fmt.Sprintf("%s q%d %+v shard=%d n=%d close=%t nodes=%v", op.Kind, op.Slot, op.Spec, op.Shard, op.N, op.Close, op.Nodes)
	for _, ev := range op.Events {
		s += fmt.Sprintf(" %s(%d,%d)=%d@%d", ev.Kind, ev.Node, ev.Peer, ev.Value, ev.TS)
	}
	return s
}

// Update is one subscription delivery.
type Update struct {
	Node   NodeID
	Result Result
	TS     int64
}

// The errors a Target maps its own onto.
var (
	ErrUnknownNode = errors.New("simtest: unknown node")       // a read at a dead node
	ErrRefused     = errors.New("simtest: refused by the log") // the op applied nothing
	ErrUnsupported = errors.New("simtest: unsupported op")
)

// Target is a system under test as Run drives it. Slots name queries.
type Target interface {
	// Entry says how the batch entry point treats time: stamps when ts-less
	// events are stamped at stream time (else they apply at 0), owns when
	// every batch closes time at stream time itself (else Apply closes it
	// at closeAt, graph.NoAdvance for none).
	Entry() (stamps, owns bool)
	// Apply applies one batch and returns the ids its NodeAdd events
	// allocated, or nil when the entry point does not report them. A
	// per-event skip (an existing edge, a dead node) is not a failure.
	Apply(events []graph.Event, closeAt int64) ([]NodeID, error)
	Register(slot int, s Spec) error
	Retire(slot int) error
	Read(slot int, v NodeID) (Result, error)
	// Covered reports whether a subscription hears slot's reader at v.
	Covered(slot int, v NodeID) bool
	Subscribe(slot int, nodes []NodeID) error
	Unsubscribe(slot int) error
	// Updates drains what slot's subscription delivered since the last call.
	Updates(slot int) []Update
	// Do runs a control op, and arms ShardFault's failure.
	Do(op Op) error
	Close()
}

// Cell is one point of the matrix a seed draws.
type Cell struct {
	Durable, HTTP, Autotune, Merged, TimeWindow bool
	Shards                                      int
	Algorithm                                   string
}

func (c Cell) String() string {
	return fmt.Sprintf("durable=%t shards=%d http=%t autotune=%t merged=%t time=%t %s",
		c.Durable, c.Shards, c.HTTP, c.Autotune, c.Merged, c.TimeWindow, c.Algorithm)
}

// Matrix is every cell: durable off/on × 1/2/3 shards × local/HTTP ×
// autotune off/on × merged/unmerged × tuple/time window × iob/vnmn.
func Matrix() []Cell {
	out := make([]Cell, 2*3*2*2*2*2*2)
	for i := range out {
		bit := func(b int) bool { return i>>b&1 == 1 }
		out[i] = Cell{Durable: bit(0), HTTP: bit(1), Autotune: bit(2), Merged: bit(3), TimeWindow: bit(4),
			Algorithm: [2]string{"iob", "vnmn"}[i>>5&1], Shards: 1 + i>>6}
	}
	return out
}

// Config is one package's simulator.
type Config struct {
	Package     string            // in the replay line, e.g. "./internal/shard/"
	Unsupported func(Cell) string // why the package cannot run a cell, or ""
	Ops         []Kind            // control ops offered beyond batches, queries and subscriptions
	Open        func(t testing.TB, c Cell, variant int, g *graph.Graph) Target
	Reference   func(t testing.TB, g *graph.Graph) Target // approximate aggregates' in-memory reference
	Owner       func(v NodeID, shards int) int            // a node's shard, for ShardFault

	Nodes, Steps, Seeds, ShortSeeds int
}

// Run is TestSimulator: one subtest per seed, each drawing a supported cell
// (in turn, so Seeds ≥ supported cells runs every one) and running it as
// Seed does. It logs the sweep's reach table when every seed is done and
// returns it, filled in by then, for the caller's Gate.
func (cfg Config) Run(t *testing.T) *Reach {
	var cells []Cell
	for _, c := range Matrix() {
		if why := cfg.Unsupported(c); why != "" {
			t.Logf("unsupported: %s: %s", c, why)
		} else {
			cells = append(cells, c)
		}
	}
	seeds := cfg.Seeds
	if testing.Short() {
		seeds = cfg.ShortSeeds
	}
	reach := &Reach{}
	t.Cleanup(func() { t.Logf("reach:%s", reach) })
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			reach.add(cfg.Seed(t, cells[int(seed-1)%len(cells)], seed))
		})
	}
	return reach
}

// Seed draws a swarm, a graph and an op list from seed and checks them on
// cell after every op, and returns the states the run reached. A failure
// shrinks the op list and prints it with the line that replays the test.
func (cfg Config) Seed(t *testing.T, cell Cell, seed int64) State {
	return cfg.Variant(t, cell, -1, seed)
}

// Variant is Seed with the entry-point variant pinned (-1: the swarm's). A
// concurrent failure is shrunk by serial replay of its witnessed order
// when that replay fails too, and printed whole otherwise.
func (cfg Config) Variant(t *testing.T, cell Cell, variant int, seed int64) State {
	sw, g, ops := cfg.draw(cell, seed)
	if variant < 0 {
		variant = sw.variant
	}
	t.Logf("cell %s, variant %d, swarm %+v", cell, variant, sw)
	trace, reach, err := cfg.check(t, cell, variant, g, ops, seed)
	if err == nil {
		t.Logf("reached %v", reach)
		return reach
	}
	serial := func(o []Op) error { _, _, err := cfg.check(t, cell, variant, g, o, 0); return err }
	if serial(trace) == nil {
		t.Fatalf("%v\nthe witnessed order replays serially without failure; the whole history:%s\nreplay: go test -run '^%s$' %s",
			err, listOps(trace), t.Name(), cfg.Package)
	}
	small := Shrink(trace, func(o []Op) bool { return serial(o) != nil }, 400)
	t.Fatalf("%v\nshrunk to %d of %d ops of the witnessed order (%v):%s\nreplay: go test -run '^%s$' %s",
		err, len(small), len(trace), serial(small), listOps(small), t.Name(), cfg.Package)
	return 0
}

func listOps(ops []Op) string {
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "\n  %3d %s", i, op)
	}
	return b.String()
}

// Shrink delta-debugs a failing op list within budget runs: it drops ever
// smaller runs of ops, then events inside the remaining batches, while
// fails holds.
func Shrink(ops []Op, fails func([]Op) bool, budget int) []Op {
	try := func(cand []Op) bool { budget--; return budget >= 0 && fails(cand) }
	ops = ddmin(ops, try)
	for i := range ops {
		ops[i].Events = ddmin(ops[i].Events, func(evs []graph.Event) bool {
			cand := slices.Clone(ops)
			cand[i].Events = evs
			return try(cand)
		})
	}
	return ops
}

func ddmin[T any](xs []T, fails func([]T) bool) []T {
	for chunk := len(xs) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(xs); i += chunk {
			for i+chunk <= len(xs) && fails(slices.Concat(xs[:i], xs[i+chunk:])) {
				xs = slices.Concat(xs[:i], xs[i+chunk:])
			}
		}
	}
	return xs
}

// Check runs ops against a fresh target over g and a model, comparing them
// after every op; the first divergence is the error.
func (cfg Config) Check(t testing.TB, c Cell, variant int, g *graph.Graph, ops []Op) error {
	_, _, err := cfg.check(t, c, variant, g, ops, 0)
	return err
}

// check is Check, running each run of consecutive batches as one
// concurrent round when seed is not 0 and the target drives an Ingestor.
// It returns the witnessed order as a serial op list, and the states the
// run reached.
func (cfg Config) check(t testing.TB, c Cell, variant int, g *graph.Graph, ops []Op, seed int64) (trace []Op, reach State, err error) {
	s := &sim{cfg: cfg, cell: c, tg: cfg.Open(t, c, variant, g.Clone()), m: NewModel(g), subs: map[int][]NodeID{}}
	s.w = &witness{tg: s.tg}
	wt, conc := s.tg.(Witnessed)
	if conc {
		wt.Witness(s.w.hook)
		_, owns := s.tg.Entry()
		conc = seed != 0 && owns
	}
	defer s.tg.Close()
	if cfg.Reference != nil {
		s.ref = cfg.Reference(t, g.Clone())
		defer s.ref.Close()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		trace, reach = s.trace, s.reach
		if r, ok := s.tg.(Reacher); ok {
			reach |= r.Reached()
		}
	}()
	for i, j := 0, 1; i < len(ops); i, j = j, j+1 {
		round := conc && ops[i].Kind == Batch
		for round && j < len(ops) && ops[j].Kind == Batch {
			j++
		}
		if round {
			err = s.round(ops[i:j], seed*1000+int64(i))
		} else {
			s.trace = append(s.trace, ops[i])
			err = s.step(ops[i])
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cell %s, op %d (%s): %w", c, i, ops[i], err)
		}
	}
	return nil, 0, nil
}

type sim struct {
	cfg     Config
	cell    Cell
	tg, ref Target
	m       *Model
	subs    map[int][]NodeID // the nodes each subscription covers; nil: every node
	w       *witness
	trace   []Op  // the ops as they took effect
	reach   State // the states the run reached
	retired bool  // a retire took effect
}

func (s *sim) step(op Op) error {
	sp, live := s.m.Query(op.Slot)
	var err error
	switch op.Kind {
	case Batch, ShardFault:
		return s.batch(op)
	case Register:
		if live {
			return nil
		}
		if err = s.tg.Register(op.Slot, op.Spec); err == nil {
			s.m.Register(op.Slot, op.Spec)
			if op.Spec.Approx() && s.ref != nil {
				err = s.ref.Register(op.Slot, op.Spec)
			}
		}
	case Retire:
		if !live {
			return nil
		}
		delete(s.subs, op.Slot)
		// A retire the log refused still retires the live handle, and the
		// recovery that follows resurrects the query.
		if err = s.tg.Retire(op.Slot); !errors.Is(err, ErrRefused) {
			s.m.Retire(op.Slot)
			s.retired = true
			if sp.Approx() && s.ref != nil {
				_ = s.ref.Retire(op.Slot)
			}
		}
	case Subscribe:
		if _, on := s.subs[op.Slot]; !live || on {
			return nil
		}
		if err = s.tg.Subscribe(op.Slot, op.Nodes); err == nil {
			s.subs[op.Slot] = op.Nodes
		} else if errors.Is(err, ErrUnknownNode) {
			err = nil // a node the shrunk list no longer allocates
		}
	case Unsubscribe:
		if _, on := s.subs[op.Slot]; !on {
			return nil
		}
		delete(s.subs, op.Slot)
		err = s.tg.Unsubscribe(op.Slot)
	default:
		if op.Kind == Crash || op.Kind == WALFault {
			clear(s.subs) // subscriptions die with the process
		}
		if err = s.tg.Do(op); err == nil && (op.Kind == Crash || op.Kind == WALFault) {
			s.recovered(op.Kind == Crash && op.N == 1, op.Kind == WALFault)
		}
	}
	if errors.Is(err, ErrRefused) {
		return s.recover()
	}
	if err != nil && !errors.Is(err, ErrUnsupported) {
		return err
	}
	return s.check()
}

// recover crashes and recovers a target whose log refused an op.
func (s *sim) recover() error {
	clear(s.subs)
	if err := s.tg.Do(Op{Kind: Crash}); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	s.recovered(false, false)
	return s.check()
}

// recovered records a recovery: from a clean restart or a crash, onto a
// faulted log or not.
func (s *sim) recovered(clean, fault bool) {
	if !clean {
		s.reach |= Recovered
	}
	if fault {
		s.reach |= Faulted
	}
	if s.retired {
		s.reach |= RetiredStays
	}
}

// stamp stamps a batch as the target's entry point does and returns the
// time it closes: stream time after the batch when the entry point owns
// time or close asks, if that passes the furthest close.
func (s *sim) stamp(events []graph.Event, close bool) ([]graph.Event, int64) {
	stamps, owns := s.tg.Entry()
	stamped, now := slices.Clone(events), s.m.now
	for i := range stamped {
		if stamps && stamped[i].TS == 0 && now != math.MinInt64 {
			stamped[i].TS = now
		}
		if ts := stamped[i].TS; ts != 0 {
			now = max(now, ts)
		}
	}
	if (owns || close) && now != math.MinInt64 && now > s.m.closed {
		return stamped, now
	}
	return stamped, graph.NoAdvance
}

// skipped reports whether err holds only per-event skips: an existing or
// missing edge, a dead node.
func skipped(err error) bool {
	return errors.Is(err, graph.ErrEdgeExists) || errors.Is(err, graph.ErrEdgeNotFound) ||
		errors.Is(err, graph.ErrNodeNotFound) || errors.Is(err, ErrUnknownNode)
}

// batch applies a batch to the target, the model and the reference, then
// checks the subscriptions and every read.
func (s *sim) batch(op Op) error {
	stamped, closeAt := s.stamp(op.Events, op.Close)
	failing := func(ev graph.Event) bool { return s.cfg.Owner(ev.Node, s.cell.Shards) == op.Shard }
	if op.Kind == ShardFault {
		if !slices.ContainsFunc(stamped, failing) {
			op.Kind = Batch // nothing for the failing shard to refuse
		} else if err := s.tg.Do(op); err != nil {
			return err
		} else {
			stamped, closeAt = slices.DeleteFunc(stamped, failing), graph.NoAdvance
		}
	}
	s.w.start(s, []Op{op})
	ids, err := s.tg.Apply(op.Events, closeAt)
	pts := s.w.stop()
	switch {
	case errors.Is(err, ErrRefused):
		if err := s.check(); err != nil {
			return fmt.Errorf("after a refused batch, which must apply nothing and move no time: %w", err)
		}
		return s.recover()
	case op.Kind == ShardFault && err == nil:
		return fmt.Errorf("the batch applied although shard %d failed", op.Shard)
	case op.Kind == Batch && err != nil && !skipped(err):
		return err
	}
	var p *point
	for _, q := range pts {
		if !q.pass {
			p = q
		}
	}
	if err := s.commit(op, stamped, closeAt, ids, p, pts); err != nil {
		return err
	}
	return s.check()
}

// commit applies a batch that the target applied to the model and the
// reference, and checks its Updates: those p witnessed, read against the
// coverage p saw after it, when the target witnesses its batches.
func (s *sim) commit(op Op, stamped []graph.Event, closeAt int64, ids []NodeID, p *point, pts []*point) error {
	content := !slices.ContainsFunc(stamped, graph.Event.IsStructural)
	written, keep := map[NodeID]int64{}, s.m.now // the latest write ts per writer
	var pids *[]NodeID
	if ids != nil {
		pids = &ids
	}
	for _, ev := range stamped {
		if ev.Kind == graph.NodeAdd && pids != nil && len(*pids) > 0 {
			s.reach |= AddedNode
			if slices.Contains(s.m.free, (*pids)[0]) {
				s.reach |= ReusedID
			}
		}
		if ev.Kind == graph.ContentWrite && s.m.Alive(ev.Node) {
			if ts, seen := written[ev.Node]; !seen || ev.TS > ts {
				written[ev.Node] = ev.TS
			}
		}
		if err := s.m.Apply(ev, pids); err != nil {
			return err
		}
	}
	if op.Kind == ShardFault {
		s.m.now = keep // a failed apply moves no fleet time
	}
	s.reachChurn(stamped)
	before := s.windowLens(content && closeAt != graph.NoAdvance)
	s.m.Close(closeAt)
	if s.ref != nil {
		_, _ = s.ref.Apply(stamped, closeAt) // the same skips
	}
	if op.Kind != Batch || !content {
		return nil
	}
	got, covered, loose := s.tg.Updates, s.tg.Covered, map[reader]bool{}
	if p != nil {
		got = func(slot int) []Update { return p.updates[slot] }
		covered = func(slot int, v NodeID) bool { return p.after[reader{slot, v}] }
		loose = lenient(p, pts)
	}
	return s.updates(written, before, closeAt, got, covered, loose)
}

// reachChurn records the states a batch's structural events reached.
func (s *sim) reachChurn(stamped []graph.Event) {
	n := 0
	for _, ev := range stamped {
		if ev.IsStructural() {
			n++
		}
	}
	if n == 0 {
		return
	}
	if s.reach |= Structural; n > 1 {
		s.reach |= Burst
	}
	for _, slot := range s.m.Slots() {
		if sp, _ := s.m.Query(slot); sp.Topo() {
			s.reach |= TopoChurn
		} else if sp.Hops > 1 && s.m.families[sp.family()].members > 1 {
			s.reach |= MultiHop
		}
	}
}

// windowLens records the window sizes of every subscribed time-window
// query's writers before a close, so the writers it expired show as
// shrunken windows.
func (s *sim) windowLens(closes bool) map[int]map[NodeID]int {
	out := map[int]map[NodeID]int{}
	for slot := range s.subs {
		if sp, _ := s.m.Query(slot); closes && sp.WindowTime > 0 && !sp.Topo() {
			out[slot] = map[NodeID]int{}
			for u := range s.m.streams {
				out[slot][u] = len(s.m.Window(u, sp))
			}
		}
	}
	return out
}

// updates checks each subscription after a content-only batch: exactly one
// Update per covered reader the batch touched (a writer in its
// neighborhood written to or expired) and none elsewhere, each carrying
// the reader's current value and the latest timestamp that reached it. A
// loose reader, whose coverage changed while the batch applied, may hear
// nothing instead.
func (s *sim) updates(written map[NodeID]int64, before map[int]map[NodeID]int, closeAt int64,
	updates func(slot int) []Update, covered func(slot int, v NodeID) bool, loose map[reader]bool) error {
	for slot := range s.subs {
		sp, _ := s.m.Query(slot)
		nodes, got, last := s.subs[slot], map[NodeID]int{}, map[NodeID]int64{}
		heard := updates(slot)
		if _, owns := s.tg.Entry(); len(heard) > 0 {
			s.reach |= Heard
			if owns && sp.WindowTime > 0 {
				s.reach |= HeardTime
			}
		}
		for _, u := range heard {
			got[u.Node]++
			last[u.Node] = u.TS
			want, alive := s.m.Read(slot, u.Node)
			if sp.Approx() {
				want, _ = s.ref.Read(slot, u.Node)
			}
			if !alive || !u.Result.Eq(want) {
				return fmt.Errorf("q%d %+v: update at node %d = %+v, model %+v (alive %v)", slot, sp, u.Node, u.Result, want, alive)
			}
		}
		for _, v := range s.m.Nodes() {
			want, ts := 0, int64(math.MinInt64)
			for _, u := range s.m.Neighborhood(v, sp.Hops) {
				if wts, ok := written[u]; ok {
					ts = max(ts, wts)
				}
				if len(s.m.Window(u, sp)) < before[slot][u] {
					ts = max(ts, closeAt)
				}
			}
			cov := covered(slot, v)
			if sp.Continuous && !cov {
				return fmt.Errorf("q%d %+v: a Continuous query's reader at node %d is not covered", slot, sp, v)
			}
			touched := (nodes == nil || slices.Contains(nodes, v)) && !sp.Topo() && ts != math.MinInt64
			if touched && cov {
				want = 1
			}
			if got[v] != want && !(touched && loose[reader{slot, v}] && got[v] <= 1) {
				return fmt.Errorf("q%d %+v: %d updates at node %d, want %d", slot, sp, got[v], v, want)
			}
			if got[v] == 1 && last[v] != ts {
				return fmt.Errorf("q%d %+v: the update at node %d is stamped %d, want %d", slot, sp, v, last[v], ts)
			}
		}
	}
	return nil
}

// check drains every subscription and reads every query (CheckReads).
func (s *sim) check() error {
	for _, slot := range s.m.Slots() {
		s.tg.Updates(slot)
	}
	var ref func(int, NodeID) (Result, error)
	if s.ref != nil {
		ref = s.ref.Read
	}
	if err := s.m.CheckReads(s.tg.Read, ref); err != nil {
		return err
	}
	wt, ok := s.tg.(Windowed)
	for _, slot := range s.m.Slots() {
		if sp, _ := s.m.Query(slot); ok && !sp.Approx() {
			for u, got := range wt.Windows(slot) {
				if want := s.m.Window(u, sp); !slices.Equal(got, want) {
					return fmt.Errorf("q%d %+v: node %d's window holds %v, the model's %v", slot, sp, u, got, want)
				}
			}
		}
	}
	return nil
}

// Windowed is a Target that exports a query's writers' windows, oldest
// first: a value out of place there reads the same until time slides past
// it, but a checkpoint or a recovery carries it on.
type Windowed interface {
	Windows(slot int) map[NodeID][]int64
}

// CheckReads reads every live query at every node id ever allocated: a live
// node must read the model's recompute, a dead one ErrUnknownNode. An
// approximate aggregate reads ref's answer instead, and is not compared when
// ref is nil.
func (m *Model) CheckReads(read, ref func(slot int, v NodeID) (Result, error)) error {
	for _, slot := range m.Slots() {
		sp, _ := m.Query(slot)
		for v := NodeID(0); v < m.MaxID(); v++ {
			got, err := read(slot, v)
			want, alive := m.Read(slot, v)
			if sp.Approx() && alive && ref != nil {
				want, _ = ref(slot, v)
			}
			if !alive && !errors.Is(err, ErrUnknownNode) || alive && (err != nil || !got.Eq(want) && !(sp.Approx() && ref == nil)) {
				return fmt.Errorf("q%d %+v at node %d (alive %t): %+v, %v; model %+v", slot, sp, v, alive, got, err, want)
			}
		}
	}
	return nil
}
