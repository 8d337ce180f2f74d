package eagr

// One benchmark per table/figure of the paper's evaluation (§5). Each bench
// drives the same harness as cmd/eagr-bench at a laptop-quick scale and
// reports the figure's headline quantity as a custom metric, so
//
//	go test -bench=Fig -benchmem
//
// regenerates every experiment. The full-size series (with the printed
// rows the paper plots) come from `go run ./cmd/eagr-bench -experiment all`.

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/benchfix"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/workload"
)

func benchCfg() experiments.Config {
	return experiments.Config{Quick: true, Scale: 1, Events: 10000, Iterations: 3, Seed: 1}
}

// runExperiment executes a registered experiment b.N times and reports a
// metric extracted from the final table.
func runExperiment(b *testing.B, name string, metric string, extract func([]experiments.Table) float64) {
	b.Helper()
	e, ok := experiments.Get(name)
	if !ok {
		b.Fatalf("experiment %s not registered", name)
	}
	var tables []experiments.Table
	for i := 0; i < b.N; i++ {
		tables = e.Run(benchCfg())
	}
	if extract != nil && len(tables) > 0 {
		b.ReportMetric(extract(tables), metric)
	}
}

// lastCell parses the last row's given column as a float.
func lastCell(t experiments.Table, col int) float64 {
	row := t.Rows[len(t.Rows)-1]
	v, _ := strconv.ParseFloat(row[col], 64)
	return v
}

func BenchmarkFig08_SharingIndex(b *testing.B) {
	runExperiment(b, "fig8", "web-SI-%", func(ts []experiments.Table) float64 {
		return lastCell(ts[2], 4) // web-eu, IOB column
	})
}

func BenchmarkFig09_ChunkSize(b *testing.B) {
	runExperiment(b, "fig9", "vnma-SI-%", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 1)
	})
}

func BenchmarkFig10a_ConstructionTime(b *testing.B) {
	runExperiment(b, "fig10a", "vnma-cum-ms", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 1)
	})
}

func BenchmarkFig10b_Memory(b *testing.B) {
	runExperiment(b, "fig10b", "iob-MB", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 1)
	})
}

func BenchmarkFig11a_Depth(b *testing.B) {
	runExperiment(b, "fig11a", "max-depth", func(ts []experiments.Table) float64 {
		return float64(len(ts[0].Rows) - 1)
	})
}

func BenchmarkFig11b_NegativeEdges(b *testing.B) {
	runExperiment(b, "fig11b", "SI@k1=5-%", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 1)
	})
}

func BenchmarkFig12a_Pruning(b *testing.B) {
	runExperiment(b, "fig12a", "survivors-%", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 5)
	})
}

func BenchmarkFig12b_PruningRatio(b *testing.B) {
	runExperiment(b, "fig12b", "survivors-%@w:r10", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 3)
	})
}

func BenchmarkFig13a_Adaptive(b *testing.B) {
	runExperiment(b, "fig13a", "adaptive-last-chunk-ms", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 4)
	})
}

func BenchmarkFig13b_DataflowBaseline(b *testing.B) {
	runExperiment(b, "fig13b", "topk-dataflow-ops/s", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 2)
	})
}

func BenchmarkFig13c_Latency(b *testing.B) {
	runExperiment(b, "fig13c", "allpush-avg-us", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 1)
	})
}

func BenchmarkFig13d_Parallelism(b *testing.B) {
	runExperiment(b, "fig13d", "48thr-dataflow-ops/s", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 1)
	})
}

func BenchmarkFig14a_Throughput(b *testing.B) {
	runExperiment(b, "fig14a", "sum-vnma@w:r10-ops/s", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 3)
	})
}

func BenchmarkFig14b_Splitting(b *testing.B) {
	runExperiment(b, "fig14b", "sum-split-ratio@w:r10", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 1)
	})
}

func BenchmarkFig14c_TwoHop(b *testing.B) {
	runExperiment(b, "fig14c", "topk-dataflow-ops/s", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 2)
	})
}

func BenchmarkHeadline_Throughput(b *testing.B) {
	runExperiment(b, "headline", "ops/s", func(ts []experiments.Table) float64 {
		return lastCell(ts[0], 4)
	})
}

// --- Micro-benchmarks: the primitive operations behind the figures ---
// The fixtures and measurement loops live in internal/benchfix.

func benchOps(b *testing.B, alg, mode string, a agg.Aggregate) {
	eng, events, err := benchfix.MicroEngine(alg, mode, a)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunMixed(b, eng, events)
}

// BenchmarkOpWriteBatch1 drives the engine's batch ingest path (serial,
// notification-coalescing) in chunks.
func BenchmarkOpWriteBatch1(b *testing.B) {
	eng, events, err := benchfix.MicroEngine("baseline", "push", agg.Sum{})
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunWriteBatch(b, eng, benchfix.Writes(events), 4096)
}

// benchPullRead measures non-scalar on-demand reads (the pooled PAO arena
// path) on an all-pull overlay, via ReadInto with a retained result.
func benchPullRead(b *testing.B, a agg.Aggregate) {
	eng, reads, err := benchfix.PullReadEngine(a)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunReads(b, eng, reads)
}

func BenchmarkOpMaxPullRead(b *testing.B)  { benchPullRead(b, agg.Max{}) }
func BenchmarkOpTopKPullRead(b *testing.B) { benchPullRead(b, agg.TopK{K: 3}) }

// BenchmarkOpTopKPullAfterHub measures a write plus a three-input TOP-K pull
// read, without and after one read of a hub of benchfix.HubWriters inputs
// on the same engine: the pooled arena the hub read grew must not make the
// small reads after it pay for its table.
func BenchmarkOpTopKPullAfterHub(b *testing.B) {
	for _, hub := range []bool{false, true} {
		name := "fresh"
		if hub {
			name = "after-hub"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := benchfix.HubPullEngine()
			if err != nil {
				b.Fatal(err)
			}
			if hub {
				if _, err := eng.Read(0); err != nil {
					b.Fatal(err)
				}
			}
			benchfix.RunWriteReads(b, eng)
		})
	}
}

// benchMultiWrites measures the multi-query write fan-out: one Write
// feeding n registered all-push SUM queries (shared = one compiled
// overlay for all n; distinct = n independent engines).
func benchMultiWrites(b *testing.B, n int, shared bool) {
	m, writes, err := benchfix.MultiMicro(n, shared)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunMultiWrites(b, m, writes)
}

func BenchmarkOpSumPush1Query(b *testing.B)           { benchMultiWrites(b, 1, true) }
func BenchmarkOpSumPush8QueriesShared(b *testing.B)   { benchMultiWrites(b, 8, true) }
func BenchmarkOpSumPush8QueriesDistinct(b *testing.B) { benchMultiWrites(b, 8, false) }

// benchMergedWrites measures the merged-overlay sharing win: one Write
// feeding n partially-overlapping all-push SUM queries, either compiled
// into ONE merged family overlay with per-query reader views (merged) or
// into n distinct overlays the write fans out to.
func benchMergedWrites(b *testing.B, n int, merged bool) {
	m, writes, err := benchfix.MergedMicro(n, merged)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunMultiWrites(b, m, writes)
}

func BenchmarkOpSumPushMergedQueries(b *testing.B)    { benchMergedWrites(b, 8, true) }
func BenchmarkOpSumPushMergedVsDistinct(b *testing.B) { benchMergedWrites(b, 8, false) }

// BenchmarkOpSubscribeFanout measures the push path with one all-readers
// subscription and no consumer: every write finalizes the touched
// readers' results and delivers with steady-state drop-oldest.
func BenchmarkOpSubscribeFanout(b *testing.B) {
	eng, writes, err := benchfix.SubscribedEngine(1024)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunWrites(b, eng, writes)
}

// BenchmarkOpSubscribeFanoutBatch measures the same subscribed engine
// through WriteBatch, where fan-out is coalesced to at most one
// finalize+deliver per touched reader per batch instead of one per write.
func BenchmarkOpSubscribeFanoutBatch(b *testing.B) {
	eng, writes, err := benchfix.SubscribedEngine(1024)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunWriteBatch(b, eng, writes, 4096)
}

// BenchmarkOpWriteBatchHotWriter measures the writer-major batch path
// where it matters: Ingestor-sized batches (256) of Zipf(1) writes into an
// all-push TOP-K with a four-tuple window, so most of what a hot writer
// admits in a batch it also evicts in that batch, and one closure walk per
// distinct writer replaces one per event.
func BenchmarkOpWriteBatchHotWriter(b *testing.B) {
	eng, writes, err := benchfix.HotWriterEngine()
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunWriteBatch(b, eng, writes, 256)
}

// benchAutotuneShift measures a mixed Zipf stream whose hot set has
// drifted away from the workload the overlay was planned for. The tuned
// variant runs the autotune loop's Rebalance passes (frontier flips) during
// warm-up; the off variant measures the stale plan. The gap is the
// self-driving adaptivity win.
func benchAutotuneShift(b *testing.B, tuned bool) {
	sys, events, err := benchfix.AutotuneShiftFixture(tuned)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunSystemMixed(b, sys, events)
}

func BenchmarkOpAutotuneShiftingZipf(b *testing.B)    { benchAutotuneShift(b, true) }
func BenchmarkOpAutotuneShiftingZipfOff(b *testing.B) { benchAutotuneShift(b, false) }

// benchRebuild measures the engine's one snapshot transition — a
// Rebuild on the installed overlay, what a rebalance that flipped or a
// structural repair costs — as a function of overlay size.
func benchRebuild(b *testing.B, nodes int) {
	eng, ov, err := benchfix.RebuildEngine(nodes)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunRebuild(b, eng, ov)
}

func BenchmarkOpRebuild2k(b *testing.B)  { benchRebuild(b, 2000) }
func BenchmarkOpRebuild8k(b *testing.B)  { benchRebuild(b, 8000) }
func BenchmarkOpRebuild32k(b *testing.B) { benchRebuild(b, 32000) }

// topoBenchSession builds the topology-bench fixture: a session over the
// standard 2000-node social graph with the given topo query registered,
// plus a balanced churn tape — each tape entry toggles one random non-seed
// edge, so replaying it keeps the graph (and triangle counts) bounded.
func topoBenchSession(b *testing.B, spec QuerySpec) (*Session, *Query, []Event) {
	b.Helper()
	g := workload.SocialGraph(2000, 8, 1)
	sess, err := Open(g)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sess.Register(spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	n := NodeID(g.MaxID())
	tape := make([]Event, 4096)
	for i := range tape {
		u, w := NodeID(rng.Intn(int(n))), NodeID(rng.Intn(int(n)))
		if i%2 == 0 {
			tape[i] = NewEdgeAdd(u, w, int64(i+1))
		} else {
			tape[i] = NewEdgeRemove(u, w, int64(i+1))
		}
	}
	return sess, q, tape
}

// BenchmarkOpTriangleChurn measures incremental triangle maintenance: one
// structural event through ApplyBatch with a triangles query standing —
// the per-edge O(degree-overlap) delta, not a recount. Duplicate-add and
// missed-remove skips ride along, as in any real churn stream.
func BenchmarkOpTriangleChurn(b *testing.B) {
	sess, _, tape := topoBenchSession(b, QuerySpec{Aggregate: "triangles"})
	ev := make([]Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev[0] = tape[i%len(tape)]
		_ = sess.ApplyBatch(ev)
	}
}

// BenchmarkOpDensityRead measures a standing density read: degree lookup
// plus one fixed-point division over the incrementally-maintained triangle
// count.
func BenchmarkOpDensityRead(b *testing.B) {
	sess, q, tape := topoBenchSession(b, QuerySpec{Aggregate: "density"})
	if err := sess.ApplyBatch(tape); err != nil {
		// Per-event skips (duplicate edges) are expected in the tape.
		_ = err
	}
	maxID := sess.Graph().MaxID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Read(NodeID(i % maxID)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpEgoBetweennessChurn measures one structural event through
// ApplyBatch with a windowless ego-betweenness view standing and no
// subscriber. Values are computed on read, so the event pays the mirror
// update alone, like BenchmarkOpTriangleChurn.
func BenchmarkOpEgoBetweennessChurn(b *testing.B) {
	sess, _, tape := topoBenchSession(b, QuerySpec{Aggregate: "ego-betweenness"})
	ev := make([]Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev[0] = tape[i%len(tape)]
		_ = sess.ApplyBatch(ev)
	}
}

// BenchmarkOpIngestMixedBatch measures unified mixed ingestion: ApplyBatch
// over a content stream with periodic structural churn bursts, each burst
// coalesced into one overlay repair per query instead of one per event.
func BenchmarkOpIngestMixedBatch(b *testing.B) {
	m, events, err := benchfix.MixedBatchFixture()
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunApplyBatch(b, m, events)
}

// ingestorFixture builds the OpIngestorThroughput fixture: a session over
// the standard 2000-node social graph with one SUM query, and the write
// stream to push through an Ingestor.
func ingestorFixture(b *testing.B) (*Session, []Event) {
	b.Helper()
	g := workload.SocialGraph(2000, 8, 1)
	sess, err := Open(g, Options{Algorithm: "baseline", Mode: "all-push"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		b.Fatal(err)
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	return sess, benchfix.Writes(workload.Events(wl, 1<<16, 2))
}

// BenchmarkOpIngestorThroughput measures the streaming handle end to end:
// per-event cost of Send through the Ingestor's buffer and the ApplyBatch
// the batch-filling send runs itself (batch size 1024, watermark-driven
// expiry on), including the final Close.
func BenchmarkOpIngestorThroughput(b *testing.B) {
	sess, writes := ingestorFixture(b)
	ing, err := sess.Ingest(IngestOptions{
		BatchSize:     1024,
		QueueDepth:    8,
		FlushInterval: -1,
		Clock:         LogicalClock(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := writes[i%len(writes)]
		if err := ing.SendEvent(NewWrite(ev.Node, ev.Value, int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// BenchmarkOpIngestorThroughputParallel measures concurrent senders on
// one Ingestor: every RunParallel goroutine hands 512-event slabs to
// SendEvents, and whichever of them holds the apply token applies the
// others' batches (`go test -cpu=1,2,4` charts what contention on the send
// mutex and the token costs against the single-sender benchmark above).
func BenchmarkOpIngestorThroughputParallel(b *testing.B) {
	sess, writes := ingestorFixture(b)
	ing, err := sess.Ingest(IngestOptions{
		BatchSize:     1024,
		QueueDepth:    8,
		FlushInterval: -1,
		Clock:         LogicalClock(),
	})
	if err != nil {
		b.Fatal(err)
	}
	const slab = 512
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]Event, 0, slab)
		send := func() {
			if _, err := ing.SendEvents(buf); err != nil {
				b.Error(err)
			}
			buf = buf[:0]
		}
		for pb.Next() {
			ev := writes[int(next.Add(1))%len(writes)]
			if buf = append(buf, NewWrite(ev.Node, ev.Value, 0)); len(buf) == slab {
				send()
			}
		}
		send()
	})
	if err := ing.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// BenchmarkOpExpireSparse measures a watermark advance over 2000 live
// time-window writers where only ~one writer expires per tick: the
// indexed ExpireAll costs O(expired), not O(writers).
func BenchmarkOpExpireSparse(b *testing.B) {
	eng, err := benchfix.ExpiryEngine(1000)
	if err != nil {
		b.Fatal(err)
	}
	benchfix.RunExpireSparse(b, eng)
}

func BenchmarkOpSumDataflow(b *testing.B) { benchOps(b, construct.AlgVNMA, "dataflow", agg.Sum{}) }
func BenchmarkOpSumAllPush(b *testing.B)  { benchOps(b, "baseline", "push", agg.Sum{}) }
func BenchmarkOpSumAllPull(b *testing.B)  { benchOps(b, "baseline", "pull", agg.Sum{}) }
func BenchmarkOpMaxDataflow(b *testing.B) { benchOps(b, construct.AlgVNMD, "dataflow", agg.Max{}) }
func BenchmarkOpTopKDataflow(b *testing.B) {
	benchOps(b, construct.AlgVNMA, "dataflow", agg.TopK{K: 3})
}

func BenchmarkOverlayConstructVNMA(b *testing.B) {
	g := workload.WebGraph(2000, 24, 12, 1)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := construct.Build(construct.AlgVNMA, ag, construct.Config{Iterations: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlayConstructIOB(b *testing.B) {
	g := workload.WebGraph(2000, 24, 12, 1)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := construct.Build(construct.AlgIOB, ag, construct.Config{Iterations: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataflowDecide(b *testing.B) {
	g := workload.SocialGraph(5000, 10, 1)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	res, err := construct.Build(construct.AlgVNMA, ag, construct.Config{Iterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := res.Overlay.Flatten()
		f, err := dataflow.Frequencies(top, wl, 1)
		if err != nil {
			b.Fatal(err)
		}
		dataflow.Partition(top, f, dataflow.ConstLinear{})
	}
}

func BenchmarkStructuralEdgeAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := workload.SocialGraph(1000, 6, 1)
	sess, err := Open(g, Options{Algorithm: "iob", Iterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NodeID(rng.Intn(1000))
		v := NodeID(rng.Intn(1000))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := sess.AddEdge(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionShapes are the set-ups of the repository benchmark's three
// workloads (bench/w_feed.go, bench/w_notify.go, bench/w_durable.go): the
// graph, the Registers and whether the session is durable.
var sessionShapes = []struct {
	name    string
	gen     func() *graph.Graph
	specs   []QuerySpec
	durable bool // OpenDurable with FsyncInterval, as durable_ingest opens
}{
	{"feed", func() *graph.Graph { return workload.WebGraph(600, 50, 12, 1) }, []QuerySpec{
		{Aggregate: "sum", WindowTime: 20000},
		{Aggregate: "max", WindowTuples: 4},
		{Aggregate: "topk(10)", WindowTuples: 4},
	}, false},
	{"notify", func() *graph.Graph { return workload.SocialGraph(1000, 10, 1) }, []QuerySpec{
		{Aggregate: "sum", WindowTime: 20000, Continuous: true},
		{Aggregate: "topk(10)", WindowTuples: 4, Continuous: true},
	}, false},
	{"durable", func() *graph.Graph { return workload.SocialGraph(1000, 10, 1) }, []QuerySpec{
		{Aggregate: "sum", WindowTime: 20000},
		{Aggregate: "max", WindowTuples: 1},
	}, true},
}

// openShape opens a session on g, durable in dir or in memory, and
// registers specs.
func openShape(b *testing.B, g *graph.Graph, specs []QuerySpec, durable bool, dir string) (*Session, []*Query) {
	var (
		sess *Session
		err  error
	)
	if durable {
		sess, _, err = OpenDurable(g, DurabilityOptions{Dir: dir, Fsync: FsyncInterval}, Options{})
	} else {
		sess, err = Open(g, Options{})
	}
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]*Query, len(specs))
	for i, spec := range specs {
		if qs[i], err = sess.Register(spec); err != nil {
			b.Fatal(err)
		}
	}
	return sess, qs
}

// BenchmarkSessionSetup is what the repository benchmark reports as setup_s:
// Open (OpenDurable for durable) on a generated graph plus the workload's
// Registers, minus the graph generation. Closing a durable session and
// removing its directory are not timed.
func BenchmarkSessionSetup(b *testing.B) {
	for _, w := range sessionShapes {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			root := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := w.gen()
				dir := filepath.Join(root, strconv.Itoa(i))
				b.StartTimer()
				sess, _ := openShape(b, g, w.specs, w.durable, dir)
				if w.durable {
					b.StopTimer()
					if err := sess.CloseDurability(); err != nil {
						b.Fatal(err)
					}
					if err := os.RemoveAll(dir); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// liveHeapMB is the heap in use after two collections, in MiB, as the
// repository benchmark reads live_heap_mb.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkSessionHeap reports, as live-MB, the heap a session of each
// BenchmarkSessionSetup shape holds after traffic, over the heap measured
// once its graph was generated: the session set up (notify subscribing 256
// egos on each continuous query, with notify_open's 4096-update buffers),
// then 64 batches of 256 Zipf-skewed writes (values 1..64) through one
// Ingestor, each followed by 256 reads, then two GCs. It is live_heap_mb's
// shape without bench/: the structures a session keeps per overlay slot
// show here first.
func BenchmarkSessionHeap(b *testing.B) {
	for _, w := range sessionShapes {
		b.Run(w.name, func(b *testing.B) {
			root := b.TempDir()
			var live float64
			for i := 0; i < b.N; i++ {
				g := w.gen()
				n := g.NumNodes()
				base := liveHeapMB()
				sess, qs := openShape(b, g, w.specs, w.durable, filepath.Join(root, strconv.Itoa(i)))
				var (
					subs    []<-chan Update
					cancels []func()
				)
				for _, q := range qs {
					if q.Spec().Continuous {
						egos := make([]NodeID, 256)
						for v := range egos {
							egos[v] = NodeID(v)
						}
						ch, cancel, err := q.Subscribe(4096, egos...)
						if err != nil {
							b.Fatal(err)
						}
						subs, cancels = append(subs, ch), append(cancels, cancel)
					}
				}
				ing, err := sess.Ingest(IngestOptions{FlushInterval: -1})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
				batch := make([]Event, 256)
				var res Result
				for k, ts := 0, int64(1); k < 64; k++ {
					for j := range batch {
						batch[j] = NewWrite(NodeID(zipf.Uint64()), 1+rng.Int63n(64), ts)
						ts++
					}
					if _, err := ing.SendEvents(batch); err != nil {
						b.Fatal(err)
					}
					if err := ing.Flush(); err != nil {
						b.Fatal(err)
					}
					for _, ch := range subs {
						for len(ch) > 0 {
							<-ch
						}
					}
					for j := 0; j < 256; j++ {
						if err := qs[j%len(qs)].ReadInto(NodeID(zipf.Uint64()), &res); err != nil {
							b.Fatal(err)
						}
					}
				}
				live = liveHeapMB() - base
				runtime.KeepAlive(g)
				runtime.KeepAlive(sess)
				for _, cancel := range cancels {
					cancel()
				}
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
				if w.durable {
					if err := sess.CloseDurability(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(live, "live-MB")
		})
	}
}
