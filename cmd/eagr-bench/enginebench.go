package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	eagr "repro"
	"repro/internal/agg"
	"repro/internal/benchfix"
	"repro/internal/construct"
	"repro/internal/shard"
	"repro/internal/workload"
)

// benchIngestorThroughput is the -engine-bench twin of the repo's
// BenchmarkOpIngestorThroughput (the facade-level fixture cannot live in
// benchfix, which the eagr package's own benchmarks import).
func benchIngestorThroughput(b *testing.B) {
	g := workload.SocialGraph(2000, 8, 1)
	sess, err := eagr.Open(g, eagr.Options{Algorithm: "baseline", Mode: "all-push"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Register(eagr.QuerySpec{Aggregate: "sum"}); err != nil {
		b.Fatal(err)
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	writes := benchfix.Writes(workload.Events(wl, 1<<16, 2))
	ing, err := sess.Ingest(eagr.IngestOptions{
		BatchSize:     1024,
		QueueDepth:    8,
		FlushInterval: -1,
		Clock:         eagr.LogicalClock(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := writes[i%len(writes)]
		if err := ing.SendEvent(eagr.NewWrite(ev.Node, ev.Value, int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// benchIngestorThroughputParallel is the -engine-bench twin of the repo's
// BenchmarkOpIngestorThroughputParallel: slabs of events through
// SendEvents into the pipelined apply worker pool, ApplyWorkers pinned to
// the current GOMAXPROCS (the -cpu sweep sets it per run). At one proc
// the Ingestor degenerates to the sequential worker.
func benchIngestorThroughputParallel(b *testing.B) {
	g := workload.SocialGraph(2000, 8, 1)
	sess, err := eagr.Open(g, eagr.Options{Algorithm: "baseline", Mode: "all-push"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Register(eagr.QuerySpec{Aggregate: "sum"}); err != nil {
		b.Fatal(err)
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	writes := benchfix.Writes(workload.Events(wl, 1<<16, 2))
	ing, err := sess.Ingest(eagr.IngestOptions{
		BatchSize:     1024,
		QueueDepth:    8,
		FlushInterval: -1,
		Clock:         eagr.LogicalClock(),
		ApplyWorkers:  runtime.GOMAXPROCS(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	const slab = 512
	buf := make([]eagr.Event, 0, slab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := writes[i%len(writes)]
		buf = append(buf, eagr.NewWrite(ev.Node, ev.Value, int64(i+1)))
		if len(buf) == slab {
			if _, err := ing.SendEvents(buf); err != nil {
				b.Fatal(err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := ing.SendEvents(buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// benchShardCluster opens a 2-shard cluster over the micro fixture graph
// with one standing sum query — the same fixture as OpIngestorThroughput,
// so the coordinator's routing + replication overhead is directly
// comparable to the single-process ingest path.
func benchShardCluster(b *testing.B) (*shard.Cluster, *shard.Query, []eagr.Event) {
	g := workload.SocialGraph(2000, 8, 1)
	cluster, err := shard.Open(g, shard.Options{
		Shards:  2,
		Session: eagr.Options{Algorithm: "baseline", Mode: "all-push"},
		Ingest: eagr.IngestOptions{
			BatchSize:     1024,
			QueueDepth:    8,
			FlushInterval: -1,
			Clock:         eagr.LogicalClock(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cluster.Close() })
	q, err := cluster.Register(eagr.QuerySpec{Aggregate: "sum"})
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	return cluster, q, benchfix.Writes(workload.Events(wl, 1<<16, 2))
}

// benchShardedIngest is the -engine-bench twin of internal/shard's
// BenchmarkOpShardedIngest: per-event routing cost on a content stream.
func benchShardedIngest(b *testing.B) {
	cluster, _, writes := benchShardCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := writes[i%len(writes)]
		if err := cluster.Send(eagr.NewWrite(ev.Node, ev.Value, int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	if err := cluster.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// benchShardedRead is the twin of BenchmarkOpShardedRead: a merged read
// (one wire PAO snapshot per shard, merged and finalized) on a loaded
// 2-shard cluster.
func benchShardedRead(b *testing.B) {
	cluster, q, writes := benchShardCluster(b)
	for i, ev := range writes[:1<<14] {
		if err := cluster.Send(eagr.NewWrite(ev.Node, ev.Value, int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	if err := cluster.Flush(); err != nil {
		b.Fatal(err)
	}
	maxID := cluster.Shard(0).Graph().MaxID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Read(eagr.NodeID(i % maxID)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// benchDurableSession opens a durable session over the micro fixture
// graph with one standing sum query and n pre-applied writes.
func benchDurableSession(b *testing.B, dir string, fsync eagr.FsyncPolicy, n int) *eagr.Session {
	g := workload.SocialGraph(2000, 8, 1)
	sess, _, err := eagr.OpenDurable(g, eagr.DurabilityOptions{Dir: dir, Fsync: fsync})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Register(eagr.QuerySpec{Aggregate: "sum", WindowTuples: 4}); err != nil {
		b.Fatal(err)
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	writes := benchfix.Writes(workload.Events(wl, n, 2))
	batch := make([]eagr.Event, 0, 256)
	for i, ev := range writes {
		batch = append(batch, eagr.NewWrite(ev.Node, ev.Value, int64(i+1)))
		if len(batch) == cap(batch) || i == len(writes)-1 {
			if err := sess.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return sess
}

// benchCheckpointWrite measures one full checkpoint (graph + queries +
// window suffixes, temp+rename) of a loaded durable session.
func benchCheckpointWrite(b *testing.B) {
	sess := benchDurableSession(b, b.TempDir(), eagr.FsyncOff, 1<<14)
	defer sess.CloseDurability()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// benchRecoverReplayTail measures cold recovery: open the directory, load
// the latest checkpoint, and replay a WAL tail of recoverTailEvents
// events through the normal apply path. SimulateCrash (not
// CloseDurability) between iterations keeps the tail in place.
const recoverTailEvents = 1 << 13

func benchRecoverReplayTail(b *testing.B) {
	dir := b.TempDir()
	sess := benchDurableSession(b, dir, eagr.FsyncOff, recoverTailEvents)
	if err := sess.SimulateCrash(); err != nil {
		b.Fatal(err)
	}
	var replayed int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, rec, err := eagr.OpenDurable(nil, eagr.DurabilityOptions{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		replayed = rec.ReplayedEvents
		if err := s2.SimulateCrash(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if replayed == 0 {
		b.Fatal("recovery replayed no events; the fixture WAL tail is missing")
	}
	b.ReportMetric(float64(replayed), "events/op")
}

// benchTopoSession is the -engine-bench twin of the repo's
// topoBenchSession fixture: a session over the standard 2000-node social
// graph with one topology query standing and a 4096-event tape of random
// edge adds/removes (duplicate adds and missed removes ride along, as in
// any real churn stream).
func benchTopoSession(b *testing.B, spec eagr.QuerySpec) (*eagr.Session, *eagr.Query, []eagr.Event) {
	b.Helper()
	g := workload.SocialGraph(2000, 8, 1)
	sess, err := eagr.Open(g)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sess.Register(spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	n := eagr.NodeID(g.MaxID())
	tape := make([]eagr.Event, 4096)
	for i := range tape {
		u, w := eagr.NodeID(rng.Intn(int(n))), eagr.NodeID(rng.Intn(int(n)))
		if i%2 == 0 {
			tape[i] = eagr.NewEdgeAdd(u, w, int64(i+1))
		} else {
			tape[i] = eagr.NewEdgeRemove(u, w, int64(i+1))
		}
	}
	return sess, q, tape
}

// benchTriangleChurn is the twin of BenchmarkOpTriangleChurn: one
// structural event through ApplyBatch with a triangles query standing —
// the per-edge O(degree-overlap) incremental delta, never a recount.
func benchTriangleChurn(b *testing.B) {
	sess, _, tape := benchTopoSession(b, eagr.QuerySpec{Aggregate: "triangles"})
	ev := make([]eagr.Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev[0] = tape[i%len(tape)]
		_ = sess.ApplyBatch(ev)
	}
}

// benchDensityRead is the twin of BenchmarkOpDensityRead: a standing
// density read — degree lookup plus one fixed-point division over the
// incrementally-maintained triangle count.
func benchDensityRead(b *testing.B) {
	sess, q, tape := benchTopoSession(b, eagr.QuerySpec{Aggregate: "density"})
	// Per-event skips (duplicate edges) are expected in the tape.
	_ = sess.ApplyBatch(tape)
	maxID := sess.Graph().MaxID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Read(eagr.NodeID(i % maxID)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEgoBetweennessRecompute is the twin of
// BenchmarkOpEgoBetweennessRecompute: one watermark tick of the windowed
// ego-betweenness view — a structural event dirties the egos it touched,
// then ExpireAll crosses the window and recomputes exactly those.
func benchEgoBetweennessRecompute(b *testing.B) {
	sess, _, tape := benchTopoSession(b, eagr.QuerySpec{Aggregate: "ego-betweenness", WindowTime: 1})
	ev := make([]eagr.Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev[0] = tape[i%len(tape)]
		_ = sess.ApplyBatch(ev)
		sess.ExpireAll(int64(i + 2))
	}
}

// engineBenchResult is one micro-benchmark's measurement, serialized into
// BENCH_engine.json so successive PRs have a perf trajectory to compare
// against.
type engineBenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// engineBenchFile is the BENCH_engine.json schema. Baseline holds the
// numbers measured at the seed (before the compiled-plan write path);
// Current is refreshed by every `eagr-bench -engine-bench` run.
type engineBenchFile struct {
	Host     string                       `json:"host"`
	GoMaxPro int                          `json:"gomaxprocs"`
	Baseline map[string]engineBenchResult `json:"baseline"`
	Current  map[string]engineBenchResult `json:"current"`
}

// seedBaseline is the pre-change measurement of the BenchmarkOp* micros,
// recorded once so the acceptance criteria stay checkable across PRs. The
// OpSum* rows were measured at the seed (synchronous pointer-walking
// propagation, per-write allocations); the OpPullRead rows were measured
// just before the pooled PAO arena landed (per-read PAO allocation on the
// MAX/TOP-K pull path).
var seedBaseline = map[string]engineBenchResult{
	"OpSumDataflow":  {NsPerOp: 162.6, OpsPerSec: 6.15e6, AllocsPerOp: 1, BytesPerOp: 54},
	"OpSumAllPush":   {NsPerOp: 458.0, OpsPerSec: 2.18e6, AllocsPerOp: 2, BytesPerOp: 420},
	"OpSumAllPull":   {NsPerOp: 176.8, OpsPerSec: 5.66e6, AllocsPerOp: 1, BytesPerOp: 39},
	"OpMaxPullRead":  {NsPerOp: 771.7, OpsPerSec: 1.30e6, AllocsPerOp: 5, BytesPerOp: 438},
	"OpTopKPullRead": {NsPerOp: 1379.0, OpsPerSec: 0.73e6, AllocsPerOp: 5, BytesPerOp: 394},
	// Measured just before merged multi-query overlays landed: 8
	// partially-overlapping SUM queries could only compile as 8 distinct
	// overlays (the MergedVsDistinct fixture), and a WriteBatch against a
	// subscribed engine fanned out once per write, not once per batch.
	"OpSumPushMergedQueries": {NsPerOp: 1972.0, OpsPerSec: 0.51e6, AllocsPerOp: 0, BytesPerOp: 0},
	"OpSubscribeFanoutBatch": {NsPerOp: 1007.0, OpsPerSec: 0.99e6, AllocsPerOp: 0, BytesPerOp: 0},
	// Measured just before the unified streaming-ingestion API landed, on
	// the same fixtures: the mixed content/structural stream applied one
	// event at a time through Write/AddEdge/RemoveEdge (every structural
	// event paying a full serialized repair), and the Ingestor's
	// per-event cost compared against a bare per-event Session.Write (no
	// batching, no watermark, caller-threaded time).
	"OpIngestMixedBatch":   {NsPerOp: 77988.0, OpsPerSec: 12.8e3, AllocsPerOp: 294, BytesPerOp: 62686},
	"OpIngestorThroughput": {NsPerOp: 203.2, OpsPerSec: 4.92e6, AllocsPerOp: 0, BytesPerOp: 0},
	// Measured when durability landed (fsync=off): one full checkpoint of
	// a loaded 2k-node session, and cold recovery replaying a ~6.5k-event
	// WAL tail through the normal apply path.
	"OpCheckpointWrite":   {NsPerOp: 4.78e6, OpsPerSec: 209, AllocsPerOp: 30155, BytesPerOp: 982803},
	"OpRecoverReplayTail": {NsPerOp: 1.245e8, OpsPerSec: 8, AllocsPerOp: 452642, BytesPerOp: 44219904},
	// Measured when the sharded coordinator landed: per-event routing on a
	// 2-shard cluster (vs ~203 ns/op for the single-process Ingestor on
	// the same fixture — the delta is the routing lock and owner hash),
	// and a merged 2-shard scatter-gather read.
	"OpShardedIngest": {NsPerOp: 366.7, OpsPerSec: 2.73e6, AllocsPerOp: 0, BytesPerOp: 0},
	"OpShardedRead":   {NsPerOp: 449.5, OpsPerSec: 2.22e6, AllocsPerOp: 4, BytesPerOp: 240},
	// Measured just before the self-driving adaptivity controller landed:
	// the shifting-Zipf fixture could only run its stale seed-1 plan
	// against the seed-7 hot set (the value the Off variant still
	// reproduces), and the online resync cutover at the two fixture sizes.
	"OpAutotuneShiftingZipf": {NsPerOp: 134.3, OpsPerSec: 7.45e6, AllocsPerOp: 0, BytesPerOp: 0},
	"OpResyncCutover2k":      {NsPerOp: 1.90e6, OpsPerSec: 527, AllocsPerOp: 10660, BytesPerOp: 1067289},
	"OpResyncCutover8k":      {NsPerOp: 8.68e6, OpsPerSec: 115, AllocsPerOp: 41527, BytesPerOp: 4339305},
	// Measured just before the multi-core ingestion pipeline landed: a
	// watermark advance walked every writer (the value ExpireAllScan still
	// reproduces — 2000 live time-window writers, ~1 actual expiry per
	// tick), and the Ingestor had a single sequential apply worker, so the
	// per-core rows all start from the one-worker per-event Send cost.
	// Measured when topology-valued aggregates landed — the first recorded
	// numbers for the topo micros (one incremental triangle delta per
	// structural event, a standing fixed-point density read, one windowed
	// ego-betweenness watermark tick over the accumulated churn graph) and
	// the pre-existing resync cutover at the new 32k overlay size.
	"OpResyncCutover32k":                 {NsPerOp: 2.93e7, OpsPerSec: 34, AllocsPerOp: 159291, BytesPerOp: 17209201},
	"OpTriangleChurn":                    {NsPerOp: 678.4, OpsPerSec: 1.47e6, AllocsPerOp: 7, BytesPerOp: 158},
	"OpDensityRead":                      {NsPerOp: 51.3, OpsPerSec: 19.5e6, AllocsPerOp: 0, BytesPerOp: 0},
	"OpEgoBetweennessRecompute":          {NsPerOp: 2.20e6, OpsPerSec: 454, AllocsPerOp: 7, BytesPerOp: 499},
	"OpExpireSparse":                     {NsPerOp: 67697.0, OpsPerSec: 14.8e3, AllocsPerOp: 0, BytesPerOp: 0},
	"OpIngestorThroughputParallel/cpu=1": {NsPerOp: 312.0, OpsPerSec: 3.21e6, AllocsPerOp: 0, BytesPerOp: 0},
	"OpIngestorThroughputParallel/cpu=2": {NsPerOp: 312.0, OpsPerSec: 3.21e6, AllocsPerOp: 0, BytesPerOp: 0},
	"OpIngestorThroughputParallel/cpu=4": {NsPerOp: 312.0, OpsPerSec: 3.21e6, AllocsPerOp: 0, BytesPerOp: 0},
}

func toResult(r testing.BenchmarkResult) engineBenchResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	out := engineBenchResult{
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if ns > 0 {
		out.OpsPerSec = 1e9 / ns
	}
	return out
}

// runEngineBench measures the BenchmarkOp* micros (via the shared
// internal/benchfix fixture, the same one bench_test.go drives) through
// testing.Benchmark and writes BENCH_engine.json (current + recorded seed
// baseline) to path. cpus lists the GOMAXPROCS values the
// parallel-ingest sweep pins (the -cpu flag).
func runEngineBench(path string, cpus []int) error {
	cur := map[string]engineBenchResult{}
	fmt.Println("engine micro-benchmarks (this takes ~30s):")
	micros := []struct {
		name, alg, mode string
	}{
		{"OpSumDataflow", construct.AlgVNMA, "dataflow"},
		{"OpSumAllPush", "baseline", "push"},
		{"OpSumAllPull", "baseline", "pull"},
	}
	for _, m := range micros {
		eng, events, err := benchfix.MicroEngine(m.alg, m.mode, agg.Sum{})
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunMixed(b, eng, events)
		}))
		cur[m.name] = r
		fmt.Printf("  %-16s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Non-scalar pull reads (MAX/TOP-K): tracks the pooled PAO arena.
	pulls := []struct {
		name string
		a    agg.Aggregate
	}{
		{"OpMaxPullRead", agg.Max{}},
		{"OpTopKPullRead", agg.TopK{K: 3}},
	}
	for _, m := range pulls {
		eng, reads, err := benchfix.PullReadEngine(m.a)
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunReads(b, eng, reads)
		}))
		cur[m.name] = r
		fmt.Printf("  %-16s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Multi-query sessions: write fan-out to 8 standing queries, shared
	// (one overlay) vs distinct (8 engines), plus the subscription fan-out
	// path (one all-readers subscriber, no consumer, drop-oldest).
	multis := []struct {
		name   string
		n      int
		shared bool
	}{
		{"OpSumPush1Query", 1, true},
		{"OpSumPush8QueriesShared", 8, true},
		{"OpSumPush8QueriesDistinct", 8, false},
	}
	for _, m := range multis {
		ms, writes, err := benchfix.MultiMicro(m.n, m.shared)
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunMultiWrites(b, ms, writes)
		}))
		cur[m.name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Merged-overlay sharing: 8 partially-overlapping SUM queries compiled
	// into ONE merged family overlay (per-query reader views) vs 8
	// distinct overlays the write fans out to.
	mergeds := []struct {
		name   string
		merged bool
	}{
		{"OpSumPushMergedQueries", true},
		{"OpSumPushMergedVsDistinct", false},
	}
	for _, m := range mergeds {
		ms, writes, err := benchfix.MergedMicro(8, m.merged)
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunMultiWrites(b, ms, writes)
		}))
		cur[m.name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	{
		eng, writes, err := benchfix.SubscribedEngine(1024)
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunWrites(b, eng, writes)
		}))
		cur["OpSubscribeFanout"] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			"OpSubscribeFanout", r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	{
		// The same subscribed engine through WriteBatch: fan-out coalesced
		// to once per touched reader per batch.
		eng, writes, err := benchfix.SubscribedEngine(1024)
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunWriteBatch(b, eng, writes)
		}))
		cur["OpSubscribeFanoutBatch"] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			"OpSubscribeFanoutBatch", r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	{
		// Unified mixed ingestion: ApplyBatch over a content stream with
		// periodic structural churn bursts, each burst coalesced into one
		// overlay repair per query.
		ms, events, err := benchfix.MixedBatchFixture()
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunApplyBatch(b, ms, events)
		}))
		cur["OpIngestMixedBatch"] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			"OpIngestMixedBatch", r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	{
		// The streaming Ingestor handle end to end: Send through buffer,
		// bounded queue and background ApplyBatch worker, watermark-driven
		// expiry on (content-only stream; mirror of BenchmarkOpIngestorThroughput).
		r := toResult(testing.Benchmark(benchIngestorThroughput))
		cur["OpIngestorThroughput"] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			"OpIngestorThroughput", r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Pipelined ingestion across core counts (the -cpu sweep): the same
	// content stream in SendEvents slabs through the partitioned apply
	// worker pool, GOMAXPROCS pinned per run. Fig 13(d)'s scaling story at
	// micro-benchmark scale.
	{
		prev := runtime.GOMAXPROCS(0)
		for _, c := range cpus {
			runtime.GOMAXPROCS(c)
			name := fmt.Sprintf("OpIngestorThroughputParallel/cpu=%d", c)
			r := toResult(testing.Benchmark(benchIngestorThroughputParallel))
			cur[name] = r
			fmt.Printf("  %-34s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
				name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
		}
		runtime.GOMAXPROCS(prev)
	}
	// Watermark expiry with 2000 live time-window writers and ~1 actual
	// expiry per tick: the heap-indexed O(expired) path vs the full-walk
	// O(writers) reference it replaced.
	expiries := []struct {
		name string
		scan bool
	}{
		{"OpExpireSparse", false},
		{"OpExpireSparseScan", true},
	}
	for _, m := range expiries {
		eng, err := benchfix.ExpiryEngine(1000)
		if err != nil {
			return err
		}
		scan := m.scan
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunExpireSparse(b, eng, scan)
		}))
		cur[m.name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Scale-out: the sharded coordinator's per-event routing cost (hash
	// the owner, stamp time, enqueue on that shard's Ingestor) and merged
	// scatter-gather reads on a 2-shard in-process cluster.
	shardeds := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"OpShardedIngest", benchShardedIngest},
		{"OpShardedRead", benchShardedRead},
	}
	for _, m := range shardeds {
		r := toResult(testing.Benchmark(m.fn))
		cur[m.name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Self-driving adaptivity: the shifting-Zipf drift fixture with the
	// controller adapting during warm-up vs the stale plan as compiled,
	// and the online resync cutover primitive at two overlay sizes.
	autotunes := []struct {
		name  string
		tuned bool
	}{
		{"OpAutotuneShiftingZipf", true},
		{"OpAutotuneShiftingZipfOff", false},
	}
	for _, m := range autotunes {
		sys, events, err := benchfix.AutotuneShiftFixture(m.tuned)
		if err != nil {
			return err
		}
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunSystemMixed(b, sys, events)
		}))
		cur[m.name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	for _, n := range []int{2000, 8000, 32000} {
		eng, err := benchfix.ResyncEngine(n)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("OpResyncCutover%dk", n/1000)
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunResync(b, eng)
		}))
		cur[name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Topology-valued aggregates: incremental triangle maintenance under
	// edge churn, a standing density read, and one windowed
	// ego-betweenness watermark tick.
	topos := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"OpTriangleChurn", benchTriangleChurn},
		{"OpDensityRead", benchDensityRead},
		{"OpEgoBetweennessRecompute", benchEgoBetweennessRecompute},
	}
	for _, m := range topos {
		r := toResult(testing.Benchmark(m.fn))
		cur[m.name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	// Durability: checkpoint write cost on a loaded session, and cold
	// recovery replaying an 8k-event WAL tail through the apply path.
	durables := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"OpCheckpointWrite", benchCheckpointWrite},
		{"OpRecoverReplayTail", benchRecoverReplayTail},
	}
	for _, m := range durables {
		r := toResult(testing.Benchmark(m.fn))
		cur[m.name] = r
		fmt.Printf("  %-26s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			m.name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	{
		eng, events, err := benchfix.MicroEngine("baseline", "push", agg.Sum{})
		if err != nil {
			return err
		}
		writes := benchfix.Writes(events)
		r := toResult(testing.Benchmark(func(b *testing.B) {
			benchfix.RunWriteBatch(b, eng, writes)
		}))
		cur["OpWriteBatch1"] = r
		fmt.Printf("  %-16s %10.1f ns/op %12.0f ops/s %3d allocs/op\n",
			"OpWriteBatch1", r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
	host, _ := os.Hostname()
	out := engineBenchFile{
		Host:     host,
		GoMaxPro: runtime.GOMAXPROCS(0),
		Baseline: seedBaseline,
		Current:  cur,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
