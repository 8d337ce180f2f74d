package main

import (
	"time"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// churn_topo: the same session and core layers as feed_mixed, used
// differently. Synchronous Session.ApplyBatch of 256-event batches, 80 %
// content and 20 % edge adds/removes, with topology-valued queries
// (density, triangles, ego-betweenness) beside one content sum. Structural
// runs fence content runs, so overlay repair and internal/topo
// maintenance dominate and engine push is light.

type churnSizes struct {
	nodes, degree int
	halfBatches   int   // batches in the forward half of the churn cycle
	betweenWindow int64 // ego-betweenness recompute cadence, in sequence numbers
}

// Calibration: the sum query uses the maintainable IOB overlay — the
// automatic choice for sum (VNM_N, negative edges) recompiles the whole
// overlay on every structural run, which would measure nothing but the
// compiler. IOB construction is 9.4 s on SocialGraph(10000,10) of the issue
// and 0.25 s on SocialGraph(1000,10), hence the size (five set-ups a run,
// and see w_feed.go on working sets). A structural run costs milliseconds
// whatever its length (repair + engine republish), so each batch carries
// its 51 edge events as four bursts rather than at 40 scattered positions.
// Repairs get slower the further random churn has taken the overlay from
// what construction built, so the churn cycle is short — 8 batches out, 8
// back — and the sixteen batches cost differently: the loop's numbers are
// the mean over the sixteen positions of each position's median (lib.go).
// The driver calls no ExpireAll: without a watermark the ego-betweenness
// view never ticks (one tick recomputes every hub) and its reads compute
// on demand, which is what topo.betweenness_read_us and the per-batch
// betweenness read measure.
var (
	churnFull  = churnSizes{1000, 10, 8, 2048}
	churnSmoke = churnSizes{500, 6, 3, 512}
)

const (
	churnStructShare = 0.20
	churnRuns        = 4 // structural bursts per batch
	churnDensity     = 8 // density reads per batch
	churnTriangles   = 8 // triangle reads per batch
)

var churnOpts = eagr.Options{Algorithm: "iob"}

func runChurnTopo(e *env) error {
	sz := churnFull
	if e.smoke {
		sz = churnSmoke
	}
	specs := []eagr.QuerySpec{
		{Aggregate: "sum", WindowTuples: 1},
		{Aggregate: "density"},
		{Aggregate: "triangles"},
		{Aggregate: "ego-betweenness", WindowTime: sz.betweenWindow},
	}
	graphOf := func() *graph.Graph { return workload.SocialGraph(sz.nodes, sz.degree, graphSeed) }

	g0 := graphOf()
	cycle := churnCycle(g0, sz.halfBatches, batchSize, churnStructShare, churnRuns, e.seed)
	model := newGraphModel(g0)
	hist := newHistory(sz.nodes, 1, 0)
	readEgos := sampleEgos(sz.nodes, 1024, e.seed+5)

	sut, heapBase, err := setupRepeated(e, processClock, func(int) (*libSUT, error) {
		return openLib(graphOf, specs, churnOpts, "")
	}, func(s *libSUT) { s.close() })
	if err != nil {
		return err
	}

	var (
		seq      int64
		batchNo  int // batches applied so far; batchNo % len(cycle) is the cycle position
		failures int64
	)
	iter := func(st *loopStats) {
		pos := batchNo % len(cycle)
		// a position reads the same egos every time round
		readNo := pos * (churnDensity + churnTriangles + 1)
		nextEgo := func() graph.NodeID {
			readNo++
			return readEgos[readNo%len(readEgos)]
		}
		batch := cycle[pos]
		for i := range batch {
			seq++
			batch[i].TS = seq
		}
		st.begin(pos)
		sp := e.tr.begin("session.ApplyBatch", -1, int64(batchNo))
		t0 := time.Now()
		err := sut.sess.ApplyBatch(batch)
		st.acked(time.Since(t0))
		e.tr.end(sp)
		if err != nil {
			failures++
			e.res.failf("ApplyBatch %d: %v", batchNo, err)
		}
		for _, ev := range batch {
			if ev.IsStructural() {
				model.apply(ev)
			} else {
				hist.record(ev.Node, ev.Value, ev.TS)
			}
		}
		batchNo++
		// 8 density + 8 triangle reads, timed as one group (either is some
		// tens of nanoseconds, less than the clock calls around it), then
		// one ego-betweenness read, which computes on demand.
		rs := e.tr.begin("topo.density+triangles.Read x16", -1, int64(batchNo))
		t0 = time.Now()
		for k := 0; k < churnDensity+churnTriangles; k++ {
			q := sut.qs[1]
			if k >= churnDensity {
				q = sut.qs[2]
			}
			if _, err := q.Read(nextEgo()); err != nil {
				failures++
			}
		}
		st.reads(time.Since(t0), churnDensity+churnTriangles)
		e.tr.end(rs)
		rs = e.tr.begin("topo.betweenness.Read", -1, int64(batchNo))
		t0 = time.Now()
		if _, err := sut.qs[3].Read(nextEgo()); err != nil {
			failures++
		}
		st.other(time.Since(t0))
		e.tr.end(rs)
		st.end()
	}
	const opsPerIter = batchSize + churnDensity + churnTriangles + 1

	// One whole churn cycle before anything is timed: it warms the repair
	// path and brings the graph back to where it started.
	sizeHeap(e, len(cycle), len(cycle), 1, heapBase, iter)

	mainLoop(e, opsPerIter, len(cycle), 1, nil, iter)
	e.res.ops(int64(batchNo)*opsPerIter, failures)

	if sut.sess.DurabilityStats().Enabled {
		e.res.failf("bypass: durability is enabled on churn_topo")
	}
	if n := sut.qs[0].Stats().Subscribers; n != 0 {
		e.res.failf("bypass: %d subscribers on churn_topo", n)
	}
	// Oracle: the content sum over the model's final graph, and density and
	// triangles recomputed from the model's edge sets.
	var c checker
	egos := sampleEgos(sz.nodes, oracleEgos, e.seed+7)
	read := func(qi int, ego graph.NodeID) (eagr.Result, error) { return sut.qs[qi].Read(ego) }
	verifyContent(&c, specs[:1], read, egos, model, hist, seq)
	for qi, name := range map[int]string{1: "density", 2: "triangles"} {
		for _, ego := range egos {
			got, err := read(qi, ego)
			if err != nil {
				c.fail(name+" read", err)
				continue
			}
			c.compare(name, ego, got, topoBrute(name, model, ego))
		}
	}
	c.book(e.res, "oracle")
	if e.traced {
		return churnLayers(e, sut, cycle, readEgos, graphOf)
	}
	return nil
}
