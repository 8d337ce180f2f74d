package main

import (
	"os"
	"runtime"
	"strconv"
	"time"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// durable_ingest: the only workload where internal/wal and durability.go
// do any work. A durable session (FsyncInterval, so the loop is bound by
// encode/CRC/append CPU and not by the sandbox's disk) takes 256-event
// batches through SendEvents+Flush in a closed loop, with 256 reads after
// each; then it is checkpointed, fed a fixed tail, crashed and recovered,
// and what it answers after recovery must equal what it answered before.
// Durable sessions force the sequential apply worker, so this is also the
// single-worker baseline of the pipelined ingest.

type durableSizes struct {
	nodes, degree int
	inputs, reads int
	heapIters     int // iterations served before live_heap_mb is read
	sumWindow     int64
	tailBatches   int // the fixed tail between checkpoint and crash
}

// Calibration: SocialGraph(1000,10), for the reason w_feed.go gives (at 2000
// nodes with the WAL's buffers beside the windows, acknowledgement and
// throughput spread 15-19 % between runs of one commit; at 1000, 6-10 %).
// The tail is 400 batches = 102400 events, the issue's 100 k.
var (
	durableFull  = durableSizes{1000, 10, 64, 256, 512, 20000, 400}
	durableSmoke = durableSizes{500, 6, 16, 32, 8, 2000, 8}
)

func runDurableIngest(e *env) error {
	sz := durableFull
	if e.smoke {
		sz = durableSmoke
	}
	specs := []eagr.QuerySpec{
		{Aggregate: "sum", WindowTime: sz.sumWindow},
		{Aggregate: "max", WindowTuples: 1},
	}
	graphOf := func() *graph.Graph { return workload.SocialGraph(sz.nodes, sz.degree, graphSeed) }

	inputs := contentInputs(sz.nodes, sz.inputs, sz.reads, e.seed)
	hist := newHistory(sz.nodes, 1, int(sz.sumWindow))
	egos := sampleEgos(sz.nodes, oracleEgos, e.seed+7)

	sut, heapBase, err := setupRepeated(e, processClock, func(round int) (*libSUT, error) {
		dir, err := e.mkdir("wal" + strconv.Itoa(round)) // -1 is the one that is kept
		if err != nil {
			return nil, err
		}
		return openLib(graphOf, specs, eagr.Options{}, dir)
	}, func(s *libSUT) {
		s.close()
		_ = os.RemoveAll(s.dir) // scratch; what is left goes with the run's directory
	})
	if err != nil {
		return err
	}
	defer func() { sut.close() }()
	dir := sut.dir
	model := newGraphModel(sut.g)
	ing, err := sut.sess.Ingest(eagr.IngestOptions{})
	if err != nil {
		return err
	}

	// Main loop: acknowledged durable batches and reads, closed loop.
	var seq, it int64
	iter := func(st *loopStats) {
		pos := int(it % int64(len(inputs)))
		in := &inputs[pos]
		it++
		stamp(in.writes, &seq, hist)
		st.begin(pos)
		ackBatch(e, st, ing, in.writes, it)
		readGroups(e, st, sut.qs, in.reads, it)
		st.end()
	}
	sizeHeap(e, sz.heapIters, len(inputs), sz.reads/readGroup, heapBase, iter)
	st := mainLoop(e, int64(batchSize+sz.reads), len(inputs), sz.reads/readGroup, nil, iter)

	// Checkpoint, the fixed tail, the last reads, the crash.
	crashStart := time.Now()
	var cerr error
	ckpt := e.spanned("session.Checkpoint", 0, func() { cerr = sut.sess.Checkpoint() })
	if cerr != nil {
		return cerr
	}
	e.res.set("wal.checkpoint_ms", ms(ckpt))
	for b := 0; b < sz.tailBatches; b++ {
		batch := inputs[it%int64(len(inputs))].writes
		it++
		stamp(batch, &seq, hist)
		n, err := ing.SendEvents(batch)
		e.res.ops(int64(len(batch)), int64(len(batch)-n))
		if err != nil {
			e.res.failf("tail batch: %v", err)
		}
	}
	if err := ing.Flush(); err != nil {
		e.res.failf("tail flush: %v", err)
	}
	wm, _ := ing.Watermark()
	bookIngestor(e, ing)
	if err := ing.Close(); err != nil {
		return err
	}
	ds := sut.sess.DurabilityStats()
	if !ds.Enabled || ds.WALAppends == 0 {
		e.res.failf("durable_ingest wrote no WAL records (enabled=%v appends=%d)", ds.Enabled, ds.WALAppends)
	}
	e.res.set("wal.fsyncs", float64(ds.WALSyncs))
	var c checker
	verifyContent(&c, specs, func(qi int, ego graph.NodeID) (eagr.Result, error) { return sut.qs[qi].Read(ego) },
		egos, model, hist, wm)
	c.book(e.res, "oracle")
	before, err := readAll(sut.qs, egos)
	if err != nil {
		return err
	}
	if err := sut.sess.SimulateCrash(); err != nil {
		return err
	}
	sut.sess = nil
	e.res.phase("crash", crashStart)

	// Recovery: what the session answers afterwards must be what it
	// answered before. An untraced run recovers once, for that check; the
	// traced run reports the median of recoverRepeats.
	recStart := time.Now()
	repeats := 1
	if e.traced {
		repeats = recoverRepeats
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sess, rec, times, err := recoveryTimes(dir, eagr.Options{}, repeats)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	sut.sess, sut.qs = sess, sess.Queries()
	e.res.setSegments("recover_s", times)
	e.res.set("durability.recover_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(repeats))
	e.res.set("durability.replay_events_per_s", float64(rec.ReplayedEvents)/rec.Duration.Seconds())
	e.res.Info["recover_replayed_events"] = float64(rec.ReplayedEvents)
	if rec.ReplayedEvents < sz.tailBatches*batchSize {
		e.res.failf("recovery replayed %d events, the tail alone is %d", rec.ReplayedEvents, sz.tailBatches*batchSize)
	}
	if err := compareRecovered(e, sess, before, egos); err != nil {
		return err
	}
	e.res.phase("recover", recStart)
	if e.traced {
		return durableLayers(e, dir, specs, inputs, graphOf, st)
	}
	return nil
}
