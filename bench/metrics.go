package main

// The metric and workload names below are normative: BENCHMARK.json lists
// exactly these (TestBenchmarkJSONMatchesRegistry), every untraced run
// emits every end-to-end metric and every traced run every per-layer one.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadDefs are the workloads BENCHMARK.json lists: the ones whose
// end-to-end metrics hold their bounds between runs of one commit. All
// three keep their loop on one core and in its cache.
var workloadDefs = []workloadDef{
	{"feed_mixed", "library path, 1:1 write:read on a web graph with shared partials; exec push/pull and PAO merges do the work, WAL/HTTP/shard/topo/notify do none"},
	{"notify_open", "library path, continuous queries, a subscriber on the 256 hottest egos; Ingestor hand-over and notify fan-out do the work; its traced run is the open loop at two fixed rates"},
	{"durable_ingest", "library path with WAL on; encode/CRC/append, checkpoint and crash replay work here and nowhere else; sequential-apply baseline"},
}

// unlistedDefs run with -all, in the self-tests and by name, but are not in
// BENCHMARK.json: a workload that fails its own bounds on unchanged code
// would reject every later change. churn_topo's batches allocate 7 MB each
// while they repair the overlay, so their time is the host's memory as much
// as the program's: between runs of one commit its throughput,
// acknowledgement and read times spread by 13-25 % (four sets of ten runs).
// sharded_http is four processes on two shared cores: 4-10 % most of the
// time, and 35-116 % in a set that meets one of the host's bad spells (a few
// minutes, about once in forty). The issue's rule for such a metric is to
// keep its name and take its bound away; this is the same rule for a
// workload (bench/README.md, "The two unlisted workloads").
var unlistedDefs = []workloadDef{
	{"churn_topo", "library path, synchronous 256-event batches with 20% edge churn; overlay repair and topo maintenance dominate, engine push is light"},
	{"sharded_http", "real router + 2 shard binaries over loopback, one closed-loop client; NDJSON parse, router fan-out, JSON hop and wire-PAO merge do the work, engine time is negligible"},
}

// allWorkloads is every workload the driver can run, listed ones first.
func allWorkloads() []workloadDef {
	return append(append([]workloadDef(nil), workloadDefs...), unlistedDefs...)
}

// endToEnd are what a user of the system sees, measured with tracing off.
// Bounds are the share of the parent's median a metric may worsen by.
//
// Every loop timing is a quiet time: the workload's loop replays a short
// cycle of iterations, every position of the cycle is timed some hundred
// times, and the low quantile of those repeats is kept (lib.go, loopStats),
// on working sets small enough to stay in the core's cache. On the 2-core
// shared sandbox that is what repeats (ten runs of one commit spread by
// 3-10 %, interquartile distance over median), while a mean over the same
// run, a few long segments, or a working set of tens of megabytes spread by
// 30-60 % (bench/README.md, "Calibration notes"). The issue's
// delivery_p50_us, delivery_idle_p50_us and recover_s could not hold a
// bound here and are per-layer metrics, names kept, as the issue provides.
// setup_s is one long memory-bound timing per set-up and keeps the widest
// bound the benchmark contract allows; memory does not depend on the
// host's speed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"ingest_ack_p50_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// perLayer come from the traced run. A workload that bypasses a layer
// reports 0 for that layer's metrics (and asserts the bypass from public
// stats), so "no change" on it is checkable.
var perLayer = []metricDef{
	// the issue's end-to-end candidates that did not repeat within a bound
	// on the sandbox: open-loop delivery (notify_open) and crash recovery
	// (durable_ingest)
	{"delivery_p50_us", "us", "lower", 0},
	{"delivery_idle_p50_us", "us", "lower", 0},
	{"recover_s", "s", "lower", 0},
	// set-up chain, each step called directly
	{"workload.graph_gen_ms", "ms", "lower", 0},
	{"bipartite.build_ms", "ms", "lower", 0},
	{"construct.build_ms", "ms", "lower", 0},
	{"construct.sharing_index", "ratio", "higher", 0},
	{"overlay.partials", "count", "higher", 0},
	{"overlay.edges", "count", "lower", 0},
	{"overlay.avg_depth", "count", "lower", 0},
	{"dataflow.decide_ms", "ms", "lower", 0},
	{"dataflow.push_share", "ratio", "higher", 0},
	{"core.compile_ms", "ms", "lower", 0},
	// engine
	{"exec.write_ns", "ns", "lower", 0},
	{"exec.read_ns", "ns", "lower", 0},
	{"exec.pushes_per_write", "count", "lower", 0},
	{"exec.pulls_per_read", "count", "lower", 0},
	{"exec.read_p99_us", "us", "lower", 0},
	{"exec.resync_ms", "ms", "lower", 0},
	{"exec.resync_flips", "count", "lower", 0},
	{"exec.notify_ns", "ns", "lower", 0},
	// session + ingestor
	{"session.apply_batch_ns_per_event", "ns", "lower", 0},
	{"session.self_ns_per_event", "ns", "lower", 0},
	{"ingest.send_ns_per_event", "ns", "lower", 0},
	{"ingest.self_ns_per_event", "ns", "lower", 0},
	{"ingest.events_per_batch", "count", "higher", 0},
	{"ingest.queue_depth_mean", "count", "lower", 0},
	{"ingest.buffered_mean", "count", "lower", 0},
	{"ingest.watermark_lag", "count", "lower", 0},
	{"ingest.rejected", "count", "lower", 0},
	{"ingest.scaling_ratio", "ratio", "higher", 0},
	{"ingest.delivery_p99_us", "us", "lower", 0},
	{"ingest.dropped_updates", "count", "lower", 0},
	// structure + topology
	{"core.structural_us", "us", "lower", 0},
	{"construct.repair_us_per_edge", "us", "lower", 0},
	{"topo.edge_event_ns", "ns", "lower", 0},
	{"topo.density_read_ns", "ns", "lower", 0},
	{"topo.triangles_read_ns", "ns", "lower", 0},
	{"topo.betweenness_read_us", "us", "lower", 0},
	// durability
	{"wal.append_ns_per_event", "ns", "lower", 0},
	{"wal.bytes_per_event", "B", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.fsync_p50_us", "us", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.checkpoint_bytes", "B", "lower", 0},
	{"durability.replay_events_per_s", "1/s", "higher", 0},
	{"durability.recover_allocs", "count", "lower", 0},
	{"durability.overhead_ratio", "ratio", "lower", 0},
	// service path
	{"server.parse_ns_per_line", "ns", "lower", 0},
	{"server.ingest_ns_per_event", "ns", "lower", 0},
	{"server.read_us", "us", "lower", 0},
	{"server.http_read_p50_us", "us", "lower", 0},
	{"agg.merge_wires_ns", "ns", "lower", 0},
	{"agg.wire_bytes", "B", "lower", 0},
	{"shard.cluster_send_ns_per_event", "ns", "lower", 0},
	{"shard.cluster_read_ns", "ns", "lower", 0},
	{"shard.skew", "ratio", "lower", 0},
	{"router.read_p99_us", "us", "lower", 0},
	{"router.hop_us", "us", "lower", 0},
	{"router.ingest_hop_us", "us", "lower", 0},
	{"router.rss_mb", "MB", "lower", 0},
	{"server.rss_mb", "MB", "lower", 0},
	// every workload
	{"proc.cpu_us_per_op", "us", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"workload.gen_late_p99_us", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.budget_frac", "ratio", "higher", 0},
	// tails: printed always, but they did not repeat within a tenth on
	// the calibration host, so they carry no bound
	{"read_p99_us", "us", "lower", 0},
	{"ingest_ack_p99_us", "us", "lower", 0},
}

func defByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}
