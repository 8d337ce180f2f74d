package eagr

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/wal"
)

// durTestSpecs are the standing queries every durability test registers:
// a tuple-window sum, a time-window count, and a 2-hop member that joins
// the sum's merge family (same aggregate/window semantics, different hop
// depth → ONE merged overlay).
var durTestSpecs = []QuerySpec{
	{Aggregate: "sum", WindowTuples: 4},
	{Aggregate: "count", WindowTime: 40},
	{Aggregate: "sum", WindowTuples: 4, Hops: 2},
}

func registerAll(t *testing.T, s *Session, specs []QuerySpec) []*Query {
	t.Helper()
	qs := make([]*Query, len(specs))
	for i, spec := range specs {
		q, err := s.Register(spec)
		if err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		qs[i] = q
	}
	return qs
}

// assertSameResults compares every query's answer at every node between
// the recovered session and a never-crashed oracle.
func assertSameResults(t *testing.T, label string, got, want *Session) {
	t.Helper()
	gq, wq := got.Queries(), want.Queries()
	if len(gq) != len(wq) {
		t.Fatalf("%s: %d recovered queries, oracle has %d", label, len(gq), len(wq))
	}
	for i := range gq {
		if gq[i].ID() != wq[i].ID() {
			t.Fatalf("%s: query id mismatch %d vs %d", label, gq[i].ID(), wq[i].ID())
		}
		maxID := want.Graph().MaxID()
		for v := NodeID(0); v < NodeID(maxID); v++ {
			gr, gerr := gq[i].Read(v)
			wr, werr := wq[i].Read(v)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%s: query %d node %d: err %v vs oracle %v", label, gq[i].ID(), v, gerr, werr)
			}
			if gerr == nil && !gr.Eq(wr) {
				t.Fatalf("%s: query %d node %d: %+v, oracle %+v", label, gq[i].ID(), v, gr, wr)
			}
		}
	}
}

// TestCrashRecoveryProperty: a durable session whose log fails at its N-th
// write, torn on odd N, refuses from then on and recovers to what it
// acknowledged (the simulator's WALFault and Crash ops).
func TestCrashRecoveryProperty(t *testing.T) {
	runPins(t, pin{"seed=1", cell{Durable: true}, 0, 1, faulted}, pin{"seed=2", cell{Durable: true, TimeWindow: true}, 1, 2, faulted},
		pin{"seed=3", cell{Durable: true, Merged: true}, 0, 3, faulted},
		pin{"seed=4", cell{Durable: true, Merged: true, TimeWindow: true}, 1, 4, faulted},
		pin{"seed=5", cell{Durable: true, Algorithm: "vnmn"}, 0, 5, faulted}, pin{"seed=6", cell{Durable: true, Autotune: true}, 1, 6, faulted})
}

// TestDurableEntryPointsRecover: every entry point of a durable session
// reads as the model, and still does after a crash and recovery.
func TestDurableEntryPointsRecover(t *testing.T) { runPins(t, entryPointPins(true)...) }

// TestDurableCleanRestartReplaysNothing pins the graceful restart: a
// CloseDurability'd directory reopens from its final checkpoint with zero
// replay and the same answers. The checkpoint covers the whole log, so no
// marker is needed; a clean-shutdown marker an older build left behind
// (a CLEAN file naming the checkpoint's LSN) is ignored, including on a
// later crash restart whose log has moved past it.
func TestDurableCleanRestartReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(NewGraph(8), DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, s, durTestSpecs)
	og := NewGraph(8)
	oracle, _ := Open(og)
	registerAll(t, oracle, durTestSpecs)
	for _, sess := range []*Session{s, oracle} {
		for u := 0; u < 7; u++ {
			if err := sess.AddEdge(NodeID(u), NodeID(u+1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if err := sess.Write(NodeID(i%8), int64(i), int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.ExpireAll(30); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatalf("CloseDurability: %v", err)
	}
	if !errors.Is(s.CloseDurability(), ErrDurabilityClosed) {
		t.Fatal("second CloseDurability should report closed")
	}
	if err := s.Write(0, 1, 99); !errors.Is(err, ErrDurabilityClosed) {
		t.Fatalf("write after CloseDurability = %v, want ErrDurabilityClosed", err)
	}

	// The marker format older builds wrote at a clean shutdown: magic,
	// checkpoint LSN, CRC-32C of the first 12 bytes, little-endian.
	var marker [16]byte
	binary.LittleEndian.PutUint32(marker[0:4], 0x45414743)
	binary.LittleEndian.PutUint64(marker[4:12], s.DurabilityStats().LastCheckpointLSN)
	binary.LittleEndian.PutUint32(marker[12:16], crc32.Checksum(marker[:12], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, "CLEAN"), marker[:], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedBatches != 0 || rec.ReplayedEvents != 0 {
		t.Fatalf("clean restart replayed %d batches / %d events", rec.ReplayedBatches, rec.ReplayedEvents)
	}
	if rec.RecoveredQueries != len(durTestSpecs) {
		t.Fatalf("recovered %d queries, want %d", rec.RecoveredQueries, len(durTestSpecs))
	}
	if !rec.WatermarkValid || rec.Watermark != 30 {
		t.Fatalf("watermark = %d/%v, want 30/true", rec.Watermark, rec.WatermarkValid)
	}
	// State must still match the oracle with zero replay (it came entirely
	// from the checkpoint image).
	assertSameResults(t, "clean restart", s2, oracle)

	// A crash after more writes replays them, marker or not.
	for _, sess := range []*Session{s2, oracle} {
		for i := 50; i < 60; i++ {
			if err := sess.Write(NodeID(i%8), int64(i), int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = s2.SimulateCrash()
	s3, rec, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.CloseDurability()
	if rec.ReplayedEvents != 10 {
		t.Fatalf("crash restart replayed %d events, want the 10 written after the clean restart", rec.ReplayedEvents)
	}
	assertSameResults(t, "crash restart past a stale marker", s3, oracle)
}

// TestDurableExpireReplay: recovery replays the logged advances, so windows
// a close emptied stay empty.
func TestDurableExpireReplay(t *testing.T) {
	runPins(t, seeds(cell{Durable: true, TimeWindow: true}, 0, replayedClose, 15, 16, 17)...)
}

// TestDurableCheckpointWrappedWindows takes a checkpoint while time windows
// are wrapped around the end of their circular buffers and recovers from it
// alone (clean shutdown, zero replay): ExportWindows → replay must hand
// back each window oldest-first wherever its head sits. Eight writers stop
// at eight different points of a 50-wide slide, so their ring heads are
// spread over the buffer — most of them past the point where the live
// region wraps — and the recovered session must then keep sliding in step
// with a never-restarted oracle. The seed= subtests run the simulator's
// durable time-window cells over checkpoints of closed time.
func TestDurableCheckpointWrappedWindows(t *testing.T) {
	runPins(t, seeds(cell{Durable: true, Merged: true, TimeWindow: true}, 1, checkpointedClose, 18, 20, 100)...)
	const writers = 8
	specs := []QuerySpec{
		{Aggregate: "sum", WindowTime: 50},
		{Aggregate: "max", WindowTime: 50},
	}
	open := func(dir string) *Session {
		var s *Session
		var err error
		if dir != "" {
			s, _, err = OpenDurable(NewGraph(2*writers), DurabilityOptions{Dir: dir})
		} else {
			s, err = Open(NewGraph(2 * writers))
		}
		if err != nil {
			t.Fatal(err)
		}
		registerAll(t, s, specs)
		for u := 0; u < writers; u++ {
			// One private reader per writer, so each window is read alone.
			if err := s.AddEdge(NodeID(u), NodeID(writers+u)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	feed := func(s *Session, from, to int64) {
		for ts := from; ts <= to; ts++ {
			for u := int64(0); u < writers; u++ {
				if ts <= 60+9*u || ts > 150 { // writer u pauses at its own point
					if err := s.Write(NodeID(u), ts*7%101+u, ts); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	dir := t.TempDir()
	s, oracle := open(dir), open("")
	feed(s, 1, 130)
	feed(oracle, 1, 130)
	if err := s.CloseDurability(); err != nil { // final checkpoint
		t.Fatal(err)
	}
	s2, rec, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseDurability()
	if rec.ReplayedBatches != 0 || rec.ReplayedEvents != 0 {
		t.Fatalf("want recovery from the checkpoint image alone, got %+v", rec)
	}
	assertSameResults(t, "recovered from wrapped rings", s2, oracle)
	feed(s2, 151, 230)
	feed(oracle, 151, 230)
	assertSameResults(t, "slid on after recovery", s2, oracle)
}

// TestDurableQueryLifecycle: a retired query stays retired across a crash
// and a live one recovers (sessionTarget.crash counts them).
func TestDurableQueryLifecycle(t *testing.T) {
	runPins(t, seeds(cell{Durable: true, Merged: true}, 0, retiredStays, 21, 22, 23)...)
}

// TestDurableNodeIDReuse: NodeAdd reuses removed ids, across a checkpoint
// and replay, as the model allocates them (variant 0 reports the ids).
func TestDurableNodeIDReuse(t *testing.T) {
	runPins(t, seeds(cell{Durable: true}, 0, reusedID|recovered, 24, 25, 26)...)
}

// TestDurableIngestorResume pins the Ingestor integration: ingest with a
// logical clock and watermark expiry, crash, recover, and the new
// Ingestor's time domain continues where the old one stopped.
func TestDurableIngestorResume(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(NewGraph(6), DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, s, durTestSpecs)
	for u := 0; u < 5; u++ {
		if err := s.AddEdge(NodeID(u), NodeID(u+1)); err != nil {
			t.Fatal(err)
		}
	}
	ing, err := s.Ingest(IngestOptions{Clock: LogicalClock(), BatchSize: 8, MaxTimestampJump: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := ing.Send(NodeID(i%6), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	preTS := s.maxTS.Load()
	if preTS < 100 {
		t.Fatalf("session maxTS = %d, want >= 100", preTS)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	_ = s.SimulateCrash()

	s2, rec, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseDurability()
	if rec.NextOrdinal < 100 {
		t.Fatalf("recovered %d events, want >= 100 (all were flushed)", rec.NextOrdinal)
	}
	ing2, err := s2.Ingest(IngestOptions{Clock: LogicalClock(), MaxTimestampJump: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	// The recovered time domain seeds the new Ingestor: its
	// MaxTimestampJump reference starts at the recovered max timestamp,
	// so a continuation stream is accepted and a far-future corrupt
	// timestamp still rejected.
	if err := ing2.SendEvent(NewWrite(0, 1, preTS+5)); err != nil {
		t.Fatalf("continuation event rejected: %v", err)
	}
	if err := ing2.SendEvent(NewWrite(0, 1, preTS+(1<<30))); !errors.Is(err, ErrTimestampJump) {
		t.Fatalf("far-future event = %v, want ErrTimestampJump", err)
	}
}

// TestNonSerializableQueryNotDurable pins the documented carve-out:
// queries with un-serializable options run but do not survive recovery.
func TestNonSerializableQueryNotDurable(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(NewGraph(4), DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := s.Register(QuerySpec{Aggregate: "sum"})
	custom, err := s.Register(QuerySpec{Aggregate: "sum"}, Options{
		Neighborhood: Filtered(KHop(1), func(g *Graph, c, n NodeID) bool { return n%2 == 0 }, "even"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Durable() || custom.Durable() {
		t.Fatalf("durable flags: plain=%v custom=%v, want true/false", plain.Durable(), custom.Durable())
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseDurability()
	if rec.RecoveredQueries != 1 {
		t.Fatalf("recovered %d queries, want only the serializable one", rec.RecoveredQueries)
	}
}

// TestDurableBackgroundCheckpoint smoke-tests the checkpoint loop and the
// stats surface.
func TestDurableBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(NewGraph(4), DurabilityOptions{
		Dir:                dir,
		CheckpointInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, s, durTestSpecs[:1])
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 50; i++ {
			_ = s.Write(NodeID(i%4), 1, int64(i+1))
		}
		if st := s.DurabilityStats(); st.Checkpoints >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoints never ran: %+v", s.DurabilityStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.DurabilityStats()
	if !st.Enabled || st.WALLastLSN == 0 || st.LastCheckpointError != "" {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedBatchDoesNotAdvanceTime: a batch closes its own time, so a batch
// the WAL refuses — which is (correctly) not applied — moves no time either:
// not the session's stream time, not the time it has closed, not a window. The
// live process and a recovery from its log then agree. (When the advance was
// a second call after the batch, the refused batch's timestamps still moved
// the watermark 1 → 1000 and emptied the window, with nothing in the log.)
// A batch that applied with per-event skips still closes time.
func TestRefusedBatchDoesNotAdvanceTime(t *testing.T) {
	// run opens a fresh durable session on a filesystem that dies at write
	// crashAt (0 = never) and ingests one value at ts 1 into a time window.
	run := func(crashAt int64) (wal.FS, *wal.FaultFS, *Session, *Query, *Ingestor) {
		t.Helper()
		osfs, err := wal.NewOsFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ffs := wal.NewFaultFS(osfs, wal.FaultConfig{CrashAtWrite: crashAt})
		g := NewGraph(3)
		_ = g.AddEdge(1, 0)
		_ = g.AddEdge(2, 0)
		s, _, err := OpenDurable(g, DurabilityOptions{fs: ffs})
		if err != nil {
			t.Fatal(err)
		}
		q, err := s.Register(QuerySpec{Aggregate: "sum", WindowTime: 10, Continuous: true})
		if err != nil {
			t.Fatal(err)
		}
		ing, err := s.Ingest(IngestOptions{FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ing.SendEvent(NewWrite(1, 5, 1)); err != nil {
			t.Fatal(err)
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		return osfs, ffs, s, q, ing
	}
	check := func(when string, q *Query, ing *Ingestor, wantWM, wantSum int64) {
		t.Helper()
		if wm, ok := ing.Watermark(); !ok || wm != wantWM || ing.sess.lastExpire.Load() != wantWM {
			t.Fatalf("%s: watermark = %d (%v), closed time = %d; want both %d", when, wm, ok, ing.sess.lastExpire.Load(), wantWM)
		}
		if res, err := q.Read(0); err != nil || res.Scalar != wantSum {
			t.Fatalf("%s: read = %v, %v; want %d", when, res, err, wantSum)
		}
	}
	_, dry, s0, _, _ := run(0)
	writes := dry.Writes()
	_ = s0.SimulateCrash()

	osfs, _, s, q, ing := run(writes + 1) // the next batch's append fails
	check("before the fault", q, ing, 1, 5)
	if err := ing.SendEvent(NewWrite(2, 7, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Flush of the refused batch = %v; want the injected fault", err)
	}
	check("after the refused batch", q, ing, 1, 5)
	if err := s.ExpireAll(1000); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("ExpireAll on the broken log = %v; want the injected fault", err)
	}
	check("after the refused advance", q, ing, 1, 5)
	_ = s.SimulateCrash()
	rs, _, err := OpenDurable(nil, DurabilityOptions{fs: osfs})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.SimulateCrash()
	if res, err := rs.Query(q.ID()).Read(0); err != nil || res.Scalar != 5 {
		t.Fatalf("recovered read = %v, %v; want 5, what the live process answered", res, err)
	}

	// Per-event skips are not a refusal: the duplicate edge is reported, the
	// write beside it applies and the batch closes time at its timestamp.
	_, _, s, q, ing = run(0)
	defer s.SimulateCrash()
	if _, err := ing.SendEvents([]Event{NewEdgeAdd(1, 0, 1000), NewWrite(2, 7, 1000)}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); !errors.Is(err, graph.ErrEdgeExists) {
		t.Fatalf("Flush of the batch with a duplicate edge = %v; want ErrEdgeExists", err)
	}
	check("after the batch with a skip", q, ing, 1000, 7)
}

// TestDurableBatchIsOneWriteOneSync: an acknowledged Ingestor batch that
// closes time reaches the log as ONE File.Write holding two records — the
// events and the advance behind them — and, under FsyncPerBatch, one fsync.
// (As two appends it was two of each.)
func TestDurableBatchIsOneWriteOneSync(t *testing.T) {
	osfs, err := wal.NewOsFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ffs := wal.NewFaultFS(osfs, wal.FaultConfig{})
	s, _, err := OpenDurable(ring(8), DurabilityOptions{fs: ffs, Fsync: FsyncPerBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.SimulateCrash()
	q, err := s.Register(QuerySpec{Aggregate: "sum", WindowTime: 5, Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := s.Ingest(IngestOptions{FlushInterval: -1, Clock: LogicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	for round := 0; round < 10; round++ {
		writes, st := ffs.Writes(), s.DurabilityStats()
		for v := 0; v < 8; v++ {
			if err := ing.Send(NodeID(v), int64(round+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		now := s.DurabilityStats()
		if w, sy, ap := ffs.Writes()-writes, now.WALSyncs-st.WALSyncs, now.WALAppends-st.WALAppends; w != 1 || sy != 1 || ap != 2 {
			t.Fatalf("round %d: %d writes, %d fsyncs, %d records for one acknowledged batch; want 1, 1, 2", round, w, sy, ap)
		}
		// The advance rode the batch: only the batch's last 5 ticks are in
		// the window of any writer, i.e. this round's value at most.
		if res, err := q.Read(0); err != nil || res.Scalar > int64(2*(round+1)) {
			t.Fatalf("round %d: read = %v, %v; earlier rounds' values must have expired", round, res, err)
		}
	}
}

// TestCompatKeyGolden pins compatKey's output byte for byte. The full key is
// persisted as every checkpoint's window-group key (wal.GroupWindows.Key) and
// recovery injects windows only into a group it finds under that key, so a
// key that moves strands every checkpointed window.
func TestCompatKeyGolden(t *testing.T) {
	cases := []struct {
		spec         QuerySpec
		opts         Options
		full, family string
	}{
		{QuerySpec{Aggregate: "sum"}, Options{},
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0|nbr=in-1hop",
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0"},
		{QuerySpec{Aggregate: "sum", Hops: 2}, Options{},
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0|nbr=in-2hop",
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0"},
		{QuerySpec{Aggregate: "max", WindowTuples: 4}, Options{},
			"agg=max|wc=4|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0|nbr=in-1hop",
			"agg=max|wc=4|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0"},
		{QuerySpec{Aggregate: "count", WindowTime: 40}, Options{},
			"agg=count|wc=0|wt=40|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0|nbr=in-1hop",
			"agg=count|wc=0|wt=40|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0"},
		{QuerySpec{}, Options{},
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0|nbr=in-1hop",
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0"},
		{QuerySpec{Aggregate: "topk(3)", Continuous: true}, Options{Mode: "all-pull"},
			"agg=topk(3)|wc=1|wt=0|cont=true|alg=|mode=all-push|it=10|split=false|mrc=0|nbr=in-1hop",
			"agg=topk(3)|wc=1|wt=0|cont=true|alg=|mode=all-push|it=10|split=false|mrc=0"},
		{QuerySpec{Aggregate: "sum", WindowTuples: 2}, Options{Algorithm: "vnma", Mode: "greedy", Iterations: 6},
			"agg=sum|wc=2|wt=0|cont=false|alg=vnma|mode=greedy|it=6|split=false|mrc=0|nbr=in-1hop",
			"agg=sum|wc=2|wt=0|cont=false|alg=vnma|mode=greedy|it=6|split=false|mrc=0"},
		{QuerySpec{Aggregate: "sum"}, Options{Neighborhood: KHop(2)},
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0|nbr=in-2hop",
			"agg=sum|wc=1|wt=0|cont=false|alg=|mode=dataflow|it=10|split=false|mrc=0"},
	}
	for i, c := range cases {
		full, family := compatKey(c.spec, c.opts)
		if full != c.full || family != c.family {
			t.Errorf("case %d %+v %+v:\n got (%q, %q)\nwant (%q, %q)", i, c.spec, c.opts, full, family, c.full, c.family)
		}
	}
}

// TestRecoveryRefusesUnknownQueryField: a logged registration carrying a
// field this build has no option for cannot be honoured, so recovery stops
// at that record and names the field instead of registering a query that
// compiles differently from the one that was logged.
func TestRecoveryRefusesUnknownQueryField(t *testing.T) {
	for _, field := range []string{`"split_nodes":true`, `"max_read_cost":0.5`} {
		t.Run(field, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := OpenDurable(ring(4), DurabilityOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			_ = s.SimulateCrash()
			osfs, err := wal.NewOsFS(dir)
			if err != nil {
				t.Fatal(err)
			}
			log, err := wal.Open(osfs, wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.AppendRegister(1, []byte(`{"id":1,"spec":{"Aggregate":"sum"},`+field+`}`)); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			name, _, _ := strings.Cut(field[1:], `"`)
			s2, _, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
			if err == nil {
				s2.CloseDurability()
				t.Fatalf("recovered a record with %s; want an error naming the field", field)
			}
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("recovery error %q does not name %q", err, name)
			}
		})
	}
}

// TestGreedyModeRefused: "greedy" is no decision mode, so registering it
// fails like any unknown mode, and recovery refuses a logged registration
// naming it instead of compiling that query under another procedure.
func TestGreedyModeRefused(t *testing.T) {
	sess, err := Open(ring(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}, Options{Mode: "greedy"}); !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("Register greedy: err = %v, want ErrIncompatibleQuery", err)
	}
	dir := t.TempDir()
	s, _, err := OpenDurable(ring(4), DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	osfs, err := wal.NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(osfs, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.AppendRegister(1, []byte(`{"id":1,"spec":{"Aggregate":"sum"},"mode":"greedy"}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := OpenDurable(nil, DurabilityOptions{Dir: dir})
	if err == nil {
		s2.CloseDurability()
		t.Fatal("recovered a greedy registration; want ErrIncompatibleQuery")
	}
	if !errors.Is(err, ErrIncompatibleQuery) {
		t.Fatalf("recovery err = %v, want ErrIncompatibleQuery", err)
	}
}

// TestFsyncPolicySpellings: each policy's String parses back to it, and a
// policy outside the three is refused before the directory is touched.
func TestFsyncPolicySpellings(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncPerBatch, FsyncInterval, FsyncOff} {
		if got, err := ParseFsyncPolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	dir := t.TempDir()
	if s, _, err := OpenDurable(ring(4), DurabilityOptions{Dir: dir, Fsync: FsyncOff + 1}); err == nil {
		s.CloseDurability()
		t.Fatal("OpenDurable accepted an out-of-range fsync policy")
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Fatalf("refused open left %d files in the directory", len(names))
	}
}
