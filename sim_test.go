package eagr

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/simtest"
	"repro/internal/wal"
)

// TestSimulator checks the Session against the brute-force model of
// internal/simtest, one matrix cell per seed: in-memory and durable, with
// and without the autotune loop, merged and unmerged families, tuple and
// time windows, IOB and VNM_N overlays. Each seed's swarm draws its entry
// point: variant 0 drives the batch spine directly; variant 1 an Ingestor,
// each run of batches from three concurrent senders beside a reader and,
// with autotune, a Rebalance loop; variant 2 the per-event mutators.
// Distinct~ is compared against an in-memory Session fed the same stream.
// At full size every state must be reached by 3 of the 32 seeds.
func TestSimulator(t *testing.T) {
	reach := sessionSim.Run(t)
	t.Cleanup(func() {
		if err := reach.Gate(sessionSim.Seeds, 3); err != nil {
			t.Errorf("the sweep no longer reaches the states known bugs need:\n%v", err)
		}
	})
}

var sessionSim = simtest.Config{
	Package: ".",
	Unsupported: func(c simtest.Cell) string {
		switch {
		case c.Shards > 1:
			return "a Session is one shard; internal/shard and cmd/eagr-router run fleets"
		case c.HTTP:
			return "a Session is in-process; HTTP is the fleets' transport"
		}
		return ""
	},
	Ops: []simtest.Kind{simtest.NewIngestor, simtest.Rebalance, simtest.Reoptimize,
		simtest.Checkpoint, simtest.Crash, simtest.WALFault},
	Open: openSessionTarget,
	Reference: func(t testing.TB, g *graph.Graph) simtest.Target {
		return openSessionTarget(t, simtest.Cell{Algorithm: "iob"}, 0, g)
	},
	Nodes: 20, Steps: 60, Seeds: 32, ShortSeeds: 8,
}

// pin is one pinned simulator run of a folded test: a subtest name, a root
// cell (one shard and IOB when left zero), an entry-point variant, a seed,
// and the states the run must reach to check what the folded test checked.
type pin struct {
	name    string
	cell    simtest.Cell
	variant int
	seed    int64
	reach   simtest.State
}

type cell = simtest.Cell

func runPins(t *testing.T, pins ...pin) {
	for _, p := range pins {
		p.cell.Shards, p.cell.Algorithm = 1, cmp.Or(p.cell.Algorithm, "iob")
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			if got := sessionSim.Variant(t, p.cell, p.variant, p.seed); p.reach&^got != 0 {
				t.Fatalf("the run never reached %v (reached %v): the seed no longer checks what the pin is for", p.reach&^got, got)
			}
		})
	}
}

// seeds is one pin per seed, named seed=N.
func seeds(c simtest.Cell, variant int, reach simtest.State, seeds ...int64) []pin {
	var out []pin
	for _, seed := range seeds {
		out = append(out, pin{fmt.Sprintf("seed=%d", seed), c, variant, seed, reach})
	}
	return out
}

// sessionTarget is a Session as the simulator drives it.
type sessionTarget struct {
	cell    simtest.Cell
	variant int // 0: the batch spine, 1: an Ingestor, 2: the per-event mutators
	dir     string
	s       *Session
	ing     *Ingestor
	qs      map[int]*Query
	subs    map[int]sessionSub
	hook    func(events []Event, run func() error) error
	reached atomic.Uint32 // the simtest.States only the target sees
	// ckptWrapped: the last checkpoint exported a wrapped time ring.
	ckptWrapped bool
}

type sessionSub struct {
	ch     <-chan Update
	cancel func()
	nodes  []NodeID
	tagged bool // whole-query, on a non-zero tag of a family
}

// openSessionTarget opens the session; Witness starts its process.
func openSessionTarget(t testing.TB, c simtest.Cell, variant int, g *Graph) simtest.Target {
	st := &sessionTarget{cell: c, variant: variant, qs: map[int]*Query{}, subs: map[int]sessionSub{}}
	var err error
	if c.Durable {
		st.dir = t.TempDir()
		st.s, _, err = OpenDurable(g, DurabilityOptions{Dir: st.dir, Fsync: FsyncOff})
	} else {
		st.s, err = Open(g)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Witness installs the hook, mapping the log's refusal onto simtest's, and
// starts the process.
func (st *sessionTarget) Witness(hook func(events []Event, run func() error) error) {
	st.hook = func(evs []Event, run func() error) error {
		return hook(evs, func() error { return st.probe(evs, func() error { return refused(run()) }) })
	}
	st.start()
}

// start begins what lives and dies with the process: the autotune loop and
// the Ingestor, both under the witness hook.
func (st *sessionTarget) start() {
	st.s.witness = st.hook
	if st.cell.Autotune {
		st.s.enableAutotune(time.Millisecond)
	}
	if st.variant == 1 {
		st.ing, _ = st.s.Ingest(IngestOptions{BatchSize: 1 << 20, FlushInterval: -1, Clock: StreamClock()})
	}
}

func (st *sessionTarget) Entry() (bool, bool) { return st.variant == 1, st.variant == 1 }

func (st *sessionTarget) add(s simtest.State) { st.reached.Or(uint32(s)) }

func (st *sessionTarget) Reached() simtest.State { return simtest.State(st.reached.Load()) }

// probe runs a batch and records what it reached. Batches apply one at a
// time and the simulator waits for them, so st's maps hold still
// meanwhile.
func (st *sessionTarget) probe(evs []Event, run func() error) error {
	if evs == nil {
		return run()
	}
	if st.cancels(evs) {
		st.add(simtest.Cancelled)
	}
	recompiles := map[int]int64{}
	for slot, q := range st.qs {
		recompiles[slot] = q.Stats().Recompiles
	}
	err := run()
	for slot, q := range st.qs {
		if q.Stats().Recompiles > recompiles[slot] {
			st.add(simtest.Recompiled)
			if _, ok := st.subs[slot]; ok {
				st.add(simtest.RecompiledSub)
			}
		}
	}
	return err
}

// cancels reports whether evs write a writer whose push closure reaches a
// covered reader of a subscription by signed paths that sum to zero: VNM_N
// cancels the value there, so the reader must not hear the write.
func (st *sessionTarget) cancels(evs []Event) bool {
	for slot, sub := range st.subs {
		ov, ok := st.qs[slot].view.(*overlayView)
		if st.cell.Algorithm != "vnmn" || !ok {
			continue
		}
		top := ov.System().Engine().Topology()
		var walk func(r overlay.NodeRef, neg bool, net map[overlay.NodeRef]int)
		walk = func(r overlay.NodeRef, neg bool, net map[overlay.NodeRef]int) {
			for _, pe := range top.OutEdges(r) {
				if dst, n := overlay.UnpackRef(pe); top.Dec[dst] == overlay.Push && !top.Dead[dst] {
					if top.Kind[dst] == overlay.ReaderNode && neg != n {
						net[dst]--
					} else if top.Kind[dst] == overlay.ReaderNode {
						net[dst]++
					}
					walk(dst, neg != n, net)
				}
			}
		}
		for _, ev := range evs {
			if w := top.Writer(ev.Node); ev.Kind == graph.ContentWrite && w != overlay.NoNode {
				net := map[overlay.NodeRef]int{}
				walk(w, false, net)
				for r, n := range net {
					if v := top.GID[r]; n == 0 && top.Tag[r] == ov.ViewTag() && (sub.nodes == nil || slices.Contains(sub.nodes, v)) && ov.Covered(v) {
						return true
					}
				}
			}
		}
	}
	return false
}

func (st *sessionTarget) Send(evs []Event) error {
	_, err := st.ing.SendEvents(evs)
	return err
}

func (st *sessionTarget) Flush() error { return refused(st.ing.Flush()) }

// refused maps the log's refusal onto simtest's.
func refused(err error) error {
	if errors.Is(err, wal.ErrInjected) || errors.Is(err, ErrDurabilityClosed) {
		return errors.Join(simtest.ErrRefused, err)
	}
	return err
}

func (st *sessionTarget) Apply(evs []Event, closeAt int64) (ids []NodeID, err error) {
	switch {
	case st.variant == 1:
		if err := st.Send(evs); err != nil {
			return nil, refused(err)
		}
		return nil, st.Flush()
	case st.variant == 2:
		return st.mutate(evs, closeAt)
	}
	// A batch that closes time is the batch and its close as one
	// transaction: what an Ingestor batch is, with the advance the model
	// chose.
	run := func() error {
		if closeAt == graph.NoAdvance {
			ids, err = st.s.ApplyBatchNodes(evs)
		} else {
			ids, err = st.s.apply(evs, closeAt, false)
		}
		return refused(err)
	}
	if st.hook == nil { // the reference
		return ids, run()
	}
	return ids, st.hook(append([]Event{}, evs...), run)
}

// mutate applies a batch one event at a time through the single-event
// mutators, then closes its time.
func (st *sessionTarget) mutate(evs []Event, closeAt int64) ([]NodeID, error) {
	var ids []NodeID
	st.add(simtest.Mutators)
	err := st.probe(evs, func() (err error) { ids, err = st.mutateEach(evs, closeAt); return err })
	return ids, err
}

func (st *sessionTarget) mutateEach(evs []Event, closeAt int64) ([]NodeID, error) {
	var ids []NodeID
	var errs []error
	for _, ev := range evs {
		var err error
		switch ev.Kind {
		case graph.ContentWrite:
			err = st.s.Write(ev.Node, ev.Value, ev.TS)
		case graph.EdgeAdd:
			err = st.s.AddEdge(ev.Node, ev.Peer)
		case graph.EdgeRemove:
			err = st.s.RemoveEdge(ev.Node, ev.Peer)
		case graph.NodeAdd:
			var id NodeID
			if id, err = st.s.AddNode(); err == nil {
				ids = append(ids, id)
			}
		case graph.NodeRemove:
			err = st.s.RemoveNode(ev.Node)
		}
		errs = append(errs, refused(err))
	}
	if closeAt != graph.NoAdvance {
		errs = append(errs, refused(st.s.ExpireAll(closeAt)))
	}
	return ids, errors.Join(errs...)
}

func (st *sessionTarget) Register(slot int, sp simtest.Spec) error {
	q, err := st.s.Register(QuerySpec{Aggregate: sp.Aggregate, WindowTuples: sp.WindowTuples,
		WindowTime: sp.WindowTime, Hops: sp.Hops, Continuous: sp.Continuous},
		Options{Algorithm: st.cell.Algorithm, Iterations: 5 + sp.Family})
	if err == nil {
		st.qs[slot] = q
	}
	return refused(err)
}

func (st *sessionTarget) Retire(slot int) error {
	delete(st.subs, slot)
	err := refused(st.qs[slot].Close())
	if !errors.Is(err, simtest.ErrRefused) {
		delete(st.qs, slot) // a refused retire comes back at recovery
	}
	return err
}

func (st *sessionTarget) Read(slot int, v NodeID) (simtest.Result, error) {
	r, err := st.qs[slot].Read(v)
	if errors.Is(err, ErrUnknownNode) {
		err = simtest.ErrUnknownNode
	}
	return simtest.Result(r), err
}

func (st *sessionTarget) Covered(slot int, v NodeID) bool { return st.qs[slot].Covered(v) }

// Subscribe opens a subscription, except on the per-event mutators, which
// deliver one Update per event, not the one per batch the model checks.
func (st *sessionTarget) Subscribe(slot int, nodes []NodeID) error {
	if st.variant == 2 {
		return simtest.ErrUnsupported
	}
	ch, cancel, err := st.qs[slot].Subscribe(1<<10, nodes...)
	if errors.Is(err, ErrUnknownNode) {
		err = simtest.ErrUnknownNode
	} else if err == nil {
		ov, ok := st.qs[slot].view.(*overlayView)
		st.subs[slot] = sessionSub{ch, cancel, nodes, ok && len(nodes) == 0 && ov.ViewTag() != 0 && ov.FamilySize() > 1}
		err = st.subscribers()
	}
	return err
}

func (st *sessionTarget) Unsubscribe(slot int) error {
	st.subs[slot].cancel()
	delete(st.subs, slot)
	return st.subscribers()
}

// subscribers checks that each engine counts the subscriptions open on its
// queries: one a recompile orphaned, or a cancel left attached, shows.
func (st *sessionTarget) subscribers() error {
	open := map[any]int{}
	for slot := range st.subs {
		if sys := st.qs[slot].Internal(); sys != nil {
			open[sys.Engine()]++
		}
	}
	for slot, q := range st.qs {
		if sys := q.Internal(); sys != nil && q.Stats().Subscribers != open[sys.Engine()] {
			return fmt.Errorf("query %d's engine counts %d subscribers, %d are open", slot, q.Stats().Subscribers, open[sys.Engine()])
		}
	}
	return nil
}

func (st *sessionTarget) Updates(slot int) []simtest.Update {
	var out []simtest.Update
	for sub := st.subs[slot]; sub.ch != nil; {
		select {
		case u := <-sub.ch:
			out = append(out, simtest.Update{Node: u.Node, Result: simtest.Result(u.Result), TS: u.TS})
		default:
			if len(out) > 0 && sub.tagged {
				st.add(simtest.TaggedWhole)
			}
			return out
		}
	}
	return out
}

func (st *sessionTarget) Do(op simtest.Op) error {
	switch op.Kind {
	case simtest.NewIngestor:
		if st.ing == nil {
			return simtest.ErrUnsupported
		}
		if err := st.ing.Close(); err != nil {
			return refused(err)
		}
		st.ing, _ = st.s.Ingest(IngestOptions{BatchSize: 1 << 20, FlushInterval: -1, Clock: StreamClock()})
	case simtest.Rebalance:
		_, err := st.s.Rebalance()
		return err
	case simtest.Reoptimize:
		for _, q := range st.qs {
			if sys := q.Internal(); sys != nil {
				if err := sys.Reoptimize(nil); err != nil {
					return err
				}
			}
		}
	case simtest.Checkpoint:
		wrapped := st.wrapped()
		if err := st.s.Checkpoint(); err != nil {
			return refused(err)
		}
		st.ckptWrapped = wrapped
	case simtest.Crash:
		return st.crash(0, op.N == 1)
	case simtest.WALFault:
		if st.variant == 2 {
			return simtest.ErrUnsupported // a fault inside a batch of many appends leaves a prefix the model cannot see
		}
		return st.crash(op.N, false)
	}
	return nil
}

// crash kills the process, or shuts it down cleanly, and recovers from its
// directory; faultAt > 0 recovers onto a filesystem whose faultAt-th write
// fails.
func (st *sessionTarget) crash(faultAt int, clean bool) error {
	ckptWM := st.s.DurabilityStats().LastCheckpointWatermark
	st.stop(clean)
	dopts := DurabilityOptions{Dir: st.dir, Fsync: FsyncOff}
	if faultAt > 0 {
		osfs, err := wal.NewOsFS(st.dir)
		if err != nil {
			return err
		}
		dopts = DurabilityOptions{Fsync: FsyncOff, fs: wal.NewFaultFS(osfs, wal.FaultConfig{CrashAtWrite: int64(faultAt), ShortWrite: faultAt%2 == 1})}
	}
	s, rec, err := OpenDurable(nil, dopts)
	if err != nil && faultAt > 0 {
		s, rec, err = OpenDurable(nil, DurabilityOptions{Dir: st.dir, Fsync: FsyncOff}) // the fault fired in recovery
	}
	if err != nil {
		return err
	}
	st.s, st.subs = s, map[int]sessionSub{}
	st.recovery(rec, ckptWM, clean)
	for slot, q := range st.qs {
		if st.qs[slot] = s.Query(q.ID()); st.qs[slot] == nil {
			return errors.New("a registered query did not recover")
		}
	}
	if n := len(s.Queries()); n != len(st.qs) {
		return fmt.Errorf("%d queries recovered, %d are registered: a retired one came back", n, len(st.qs))
	}
	st.start()
	return nil
}

// recovery records what a recovery reached: ckptWM is the watermark of
// the last checkpoint before the crash.
func (st *sessionTarget) recovery(rec *Recovery, ckptWM int64, clean bool) {
	if !clean && rec.ReplayedBatches > 0 && rec.WatermarkValid && rec.Watermark > ckptWM {
		st.add(simtest.ReplayedClose)
	}
	if rec.CheckpointSeq > 0 && st.s.DurabilityStats().LastCheckpointWatermark != math.MinInt64 {
		st.add(simtest.CheckpointedClose)
	}
	if rec.CheckpointSeq > 0 && st.ckptWrapped {
		st.add(simtest.WrappedCheckpoint)
	}
}

// wrapped reports whether a time window's ring wraps past its end, which
// a checkpoint must export oldest first.
func (st *sessionTarget) wrapped() (wrapped bool) {
	for _, q := range st.qs {
		if sys := q.Internal(); sys != nil {
			for _, w := range sys.Engine().Windows() {
				tw, ok := w.(*agg.TimeWindow)
				wrapped = wrapped || ok && tw.Wrapped()
			}
		}
	}
	return wrapped
}

// Windows exports the windows of slot's writers, oldest first.
func (st *sessionTarget) Windows(slot int) map[NodeID][]int64 {
	out := map[NodeID][]int64{}
	if sys := st.qs[slot].Internal(); sys != nil {
		sys.Engine().ExportWindows(func(v NodeID, en []agg.WindowEntry) {
			for _, e := range en {
				out[v] = append(out[v], e.V)
			}
		})
	}
	return out
}

// stop ends the process: the autotune loop, the Ingestor and the log.
func (st *sessionTarget) stop(clean bool) {
	st.s.StopAutotune()
	if st.ing != nil {
		_ = st.ing.Close()
	}
	if clean {
		if wrapped := st.wrapped(); st.s.CloseDurability() == nil { // a final checkpoint
			st.ckptWrapped = wrapped
		}
	} else if st.s.Durable() {
		_ = st.s.SimulateCrash()
	}
}

func (st *sessionTarget) Close() { st.stop(false) }
