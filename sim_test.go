package eagr

import (
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/simtest"
	"repro/internal/wal"
)

// TestSimulator checks the Session against the brute-force model of
// internal/simtest, one matrix cell per seed: in-memory and durable, with
// and without the autotune loop, merged and unmerged families, tuple and
// time windows, IOB and VNM_N overlays; variant 0 drives the batch spine
// directly, variant 1 an Ingestor. Distinct~ is compared against an
// in-memory Session fed the same stream.
func TestSimulator(t *testing.T) {
	simtest.Config{
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
	}.Run(t)
}

// sessionTarget is a Session as the simulator drives it.
type sessionTarget struct {
	cell   simtest.Cell
	ingest bool
	dir    string
	s      *Session
	ing    *Ingestor
	qs     map[int]*Query
	subs   map[int]sessionSub
}

type sessionSub struct {
	ch     <-chan Update
	cancel func()
}

func openSessionTarget(t testing.TB, c simtest.Cell, variant int, g *Graph) simtest.Target {
	st := &sessionTarget{cell: c, ingest: variant == 1, qs: map[int]*Query{}, subs: map[int]sessionSub{}}
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
	st.start()
	return st
}

// start begins what lives and dies with the process: the autotune loop and
// the Ingestor.
func (st *sessionTarget) start() {
	if st.cell.Autotune {
		st.s.enableAutotune(time.Millisecond)
	}
	if st.ingest {
		st.ing, _ = st.s.Ingest(IngestOptions{BatchSize: 1 << 20, FlushInterval: -1, Clock: StreamClock()})
	}
}

func (st *sessionTarget) Entry() (bool, bool) { return st.ingest, st.ingest }

// refused maps the log's refusal onto simtest's.
func refused(err error) error {
	if errors.Is(err, wal.ErrInjected) || errors.Is(err, ErrDurabilityClosed) {
		return errors.Join(simtest.ErrRefused, err)
	}
	return err
}

func (st *sessionTarget) Apply(evs []Event, closeAt int64) ([]NodeID, error) {
	if st.ing != nil {
		if _, err := st.ing.SendEvents(evs); err != nil {
			return nil, refused(err)
		}
		return nil, refused(st.ing.Flush())
	}
	if closeAt == graph.NoAdvance {
		ids, err := st.s.ApplyBatchNodes(evs)
		return ids, refused(err)
	}
	// The batch and its close as one transaction: what an Ingestor batch
	// is, with the advance the model chose.
	ids, err := st.s.apply(evs, closeAt, false)
	return ids, refused(err)
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

func (st *sessionTarget) Subscribe(slot int, nodes []NodeID) error {
	ch, cancel, err := st.qs[slot].Subscribe(1<<16, nodes...)
	if errors.Is(err, ErrUnknownNode) {
		err = simtest.ErrUnknownNode
	} else if err == nil {
		st.subs[slot] = sessionSub{ch, cancel}
	}
	return err
}

func (st *sessionTarget) Unsubscribe(slot int) error {
	st.subs[slot].cancel()
	delete(st.subs, slot)
	return nil
}

func (st *sessionTarget) Updates(slot int) []simtest.Update {
	var out []simtest.Update
	for sub := st.subs[slot]; sub.ch != nil; {
		select {
		case u := <-sub.ch:
			out = append(out, simtest.Update{Node: u.Node, Result: simtest.Result(u.Result), TS: u.TS})
		default:
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
		return refused(st.s.Checkpoint())
	case simtest.Crash:
		return st.crash(0, op.N == 1)
	case simtest.WALFault:
		return st.crash(op.N, false)
	}
	return nil
}

// crash kills the process, or shuts it down cleanly, and recovers from its
// directory; faultAt > 0 recovers onto a filesystem whose faultAt-th write
// fails.
func (st *sessionTarget) crash(faultAt int, clean bool) error {
	st.stop(clean)
	dopts := DurabilityOptions{Dir: st.dir, Fsync: FsyncOff}
	if faultAt > 0 {
		osfs, err := wal.NewOsFS(st.dir)
		if err != nil {
			return err
		}
		dopts = DurabilityOptions{Fsync: FsyncOff, fs: wal.NewFaultFS(osfs, wal.FaultConfig{CrashAtWrite: int64(faultAt), ShortWrite: faultAt%2 == 1})}
	}
	s, _, err := OpenDurable(nil, dopts)
	if err != nil && faultAt > 0 {
		s, _, err = OpenDurable(nil, DurabilityOptions{Dir: st.dir, Fsync: FsyncOff}) // the fault fired in recovery
	}
	if err != nil {
		return err
	}
	st.s, st.subs = s, map[int]sessionSub{}
	for slot, q := range st.qs {
		if st.qs[slot] = s.Query(q.ID()); st.qs[slot] == nil {
			return errors.New("a registered query did not recover")
		}
	}
	st.start()
	return nil
}

// stop ends the process: the autotune loop, the Ingestor and the log.
func (st *sessionTarget) stop(clean bool) {
	st.s.StopAutotune()
	if st.ing != nil {
		_ = st.ing.Close()
	}
	if clean {
		_ = st.s.CloseDurability()
	} else if st.s.Durable() {
		_ = st.s.SimulateCrash()
	}
}

func (st *sessionTarget) Close() { st.stop(false) }
