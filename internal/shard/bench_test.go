package shard

import (
	"testing"

	eagr "repro"
	"repro/internal/benchfix"
	"repro/internal/workload"
)

// benchCluster opens a 2-shard cluster over the standard micro fixture
// graph with one standing sum query, mirroring the single-process
// OpIngestorThroughput fixture so the routing + replication overhead is
// directly comparable.
func benchCluster(b *testing.B) (*Cluster, *Query, []eagr.Event) {
	b.Helper()
	g := workload.SocialGraph(2000, 8, 1)
	cluster, err := Open(g, Options{
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
	writes := benchfix.Writes(workload.Events(wl, 1<<16, 2))
	return cluster, q, writes
}

// BenchmarkOpShardedIngest measures the coordinator's per-event cost on a
// content stream, in the 256-event batches a client posts: stamp time, hash
// the owner, hand each shard its slice, wait for both, expire.
func BenchmarkOpShardedIngest(b *testing.B) {
	cluster, _, writes := benchCluster(b)
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		off := i % (len(writes) - batch)
		if err := cluster.SendBatch(writes[off : off+min(batch, b.N-i)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkOpShardedRead measures a merged read on a loaded cluster: one
// wire PAO snapshot per shard, merged and finalized at the coordinator.
func BenchmarkOpShardedRead(b *testing.B) {
	cluster, q, writes := benchCluster(b)
	if err := cluster.SendBatch(writes[:1<<14]); err != nil {
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
