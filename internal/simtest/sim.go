package simtest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// Seed does.
func (cfg Config) Run(t *testing.T) {
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
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg.Seed(t, cells[int(seed-1)%len(cells)], seed)
		})
	}
}

// Seed draws an entry-point variant, a graph and an op list from seed and
// checks them on cell after every op. A failure shrinks the op list and
// prints it with the line that replays the test.
func (cfg Config) Seed(t *testing.T, cell Cell, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	variant := rng.Intn(2)
	g := RandomGraph(rng, cfg.Nodes)
	ops := Generate(rng, cfg, cell, g)
	t.Logf("cell %s, variant %d", cell, variant)
	err := cfg.Check(t, cell, variant, g, ops)
	if err == nil {
		return
	}
	small := Shrink(ops, func(o []Op) bool { return cfg.Check(t, cell, variant, g, o) != nil }, 400)
	var b strings.Builder
	for i, op := range small {
		fmt.Fprintf(&b, "\n  %3d %s", i, op)
	}
	t.Fatalf("%v\nshrunk to %d of %d ops (%v):%s\nreplay: go test -run '^%s$' %s",
		err, len(small), len(ops), cfg.Check(t, cell, variant, g, small), b.String(), t.Name(), cfg.Package)
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
func (cfg Config) Check(t testing.TB, c Cell, variant int, g *graph.Graph, ops []Op) (err error) {
	s := &sim{cfg: cfg, cell: c, tg: cfg.Open(t, c, variant, g.Clone()), m: NewModel(g), subs: map[int][]NodeID{}}
	defer s.tg.Close()
	if cfg.Reference != nil {
		s.ref = cfg.Reference(t, g.Clone())
		defer s.ref.Close()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	for i, op := range ops {
		if err := s.step(op); err != nil {
			return fmt.Errorf("cell %s, op %d (%s): %w", c, i, op, err)
		}
	}
	return nil
}

type sim struct {
	cfg     Config
	cell    Cell
	tg, ref Target
	m       *Model
	subs    map[int][]NodeID // the nodes each subscription covers; nil: every node
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
		err = s.tg.Do(op)
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
	return s.check()
}

// batch applies a batch to the target, the model and the reference, then
// checks the subscriptions and every read.
func (s *sim) batch(op Op) error {
	stamps, owns := s.tg.Entry()
	stamped, now := slices.Clone(op.Events), s.m.now
	for i := range stamped {
		if stamps && stamped[i].TS == 0 && now != math.MinInt64 {
			stamped[i].TS = now
		}
		if ts := stamped[i].TS; ts != 0 {
			now = max(now, ts)
		}
	}
	closeAt := graph.NoAdvance
	if (owns || op.Close) && now != math.MinInt64 && now > s.m.closed {
		closeAt = now
	}
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
	ids, err := s.tg.Apply(op.Events, closeAt)
	switch {
	case errors.Is(err, ErrRefused):
		if err := s.check(); err != nil {
			return fmt.Errorf("after a refused batch, which must apply nothing and move no time: %w", err)
		}
		return s.recover()
	case op.Kind == ShardFault && err == nil:
		return fmt.Errorf("the batch applied although shard %d failed", op.Shard)
	case op.Kind == Batch && err != nil && !errors.Is(err, graph.ErrEdgeExists) && !errors.Is(err, graph.ErrEdgeNotFound) &&
		!errors.Is(err, graph.ErrNodeNotFound) && !errors.Is(err, ErrUnknownNode):
		return err
	}
	content := !slices.ContainsFunc(op.Events, graph.Event.IsStructural)
	written, keep := map[NodeID]int64{}, s.m.now // the latest write ts per writer
	var writeTS []int64                          // every applied write's ts
	var pids *[]NodeID
	if ids != nil {
		pids = &ids
	}
	for _, ev := range stamped {
		if ev.Kind == graph.ContentWrite && s.m.Alive(ev.Node) {
			writeTS = append(writeTS, ev.TS)
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
	before := s.windowLens(content && closeAt != graph.NoAdvance)
	s.m.Close(closeAt)
	if s.ref != nil {
		_, _ = s.ref.Apply(stamped, closeAt) // the same skips
	}
	if op.Kind == Batch && content {
		if err := s.updates(written, writeTS, before, closeAt); err != nil {
			return err
		}
	}
	return s.check()
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
// the reader's current value and the latest timestamp that reached it.
// writeTS holds the ts of every write the batch applied.
func (s *sim) updates(written map[NodeID]int64, writeTS []int64, before map[int]map[NodeID]int, closeAt int64) error {
	for slot := range s.subs {
		sp, _ := s.m.Query(slot)
		nodes, got, last := s.subs[slot], map[NodeID]int{}, map[NodeID]int64{}
		for _, u := range s.tg.Updates(slot) {
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
		if s.cell.Autotune && !sp.Continuous {
			continue // the background pass may flip coverage under the batch
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
			heard, covered := nodes == nil || slices.Contains(nodes, v), s.tg.Covered(slot, v)
			if sp.Continuous && !covered {
				return fmt.Errorf("q%d %+v: a Continuous query's reader at node %d is not covered", slot, sp, v)
			}
			if heard && !sp.Topo() && covered && ts != math.MinInt64 {
				want = 1
			}
			// VNM_N's negative edges can carry a write to a reader outside
			// the writer's neighborhood and cancel it there: the reader
			// hears it in its one Update, stamped with that write's ts when
			// it is the latest to reach it, whether the batch touched the
			// reader or not (CHANGES.md).
			stray := s.cell.Algorithm == "vnmn" && heard && covered && !sp.Topo() && got[v] == 1 &&
				last[v] > ts && slices.Contains(writeTS, last[v])
			if got[v] != want && !stray {
				return fmt.Errorf("q%d %+v: %d updates at node %d, want %d", slot, sp, got[v], v, want)
			}
			if want == 1 && last[v] != ts && !stray {
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
	return s.m.CheckReads(s.tg.Read, ref)
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
