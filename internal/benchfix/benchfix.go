// Package benchfix holds the engine micro-benchmark fixtures and
// measurement loops behind the repo's BenchmarkOp* benchmarks — the one
// definition of each micro-op. They are a dev loop that says where to look;
// performance evidence comes from the repository benchmark in bench/.
package benchfix

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// MicroEngine builds the standard micro-benchmark fixture: a 2000-node
// social graph, the requested overlay algorithm ("baseline" or a
// construct.Alg*), decision mode ("push", "pull" or dataflow-optimal for
// anything else), and a 1:1 Zipf event stream of 1<<16 events.
func MicroEngine(alg, mode string, a agg.Aggregate) (*exec.Engine, []graph.Event, error) {
	return microEngine(alg, mode, a, agg.NewTupleWindow(1))
}

func microEngine(alg, mode string, a agg.Aggregate, window agg.Window) (*exec.Engine, []graph.Event, error) {
	g := workload.SocialGraph(2000, 8, 1)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	var ov *overlay.Overlay
	if alg == "baseline" {
		ov = construct.Baseline(ag)
	} else {
		res, err := construct.Build(alg, ag, construct.Config{Iterations: 3})
		if err != nil {
			return nil, nil, err
		}
		ov = res.Overlay
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	switch mode {
	case "push":
		dataflow.DecideAll(ov, overlay.Push)
	case "pull":
		dataflow.DecideAll(ov, overlay.Pull)
	default:
		f, err := dataflow.ComputeFreqs(ov, wl, 1)
		if err != nil {
			return nil, nil, err
		}
		if _, err := dataflow.Decide(ov, f, dataflow.ModelFor(a)); err != nil {
			return nil, nil, err
		}
	}
	eng, err := exec.New(ov, a, window)
	if err != nil {
		return nil, nil, err
	}
	return eng, workload.Events(wl, 1<<16, 2), nil
}

// HotWriterEngine builds the fixture behind OpWriteBatchHotWriter: what a
// Continuous TOP-K query compiles to — all-push over the standard social
// graph, a four-tuple window — fed the fixture's Zipf(1) writes, where a
// 256-event batch holds about half as many distinct writers and the
// hottest one writes dozens of times. One all-readers subscription with no
// consumer keeps the notification half of the batch path in the picture.
func HotWriterEngine() (*exec.Engine, []graph.Event, error) {
	eng, events, err := microEngine("baseline", "push", agg.TopK{K: 10}, agg.NewTupleWindow(4))
	if err != nil {
		return nil, nil, err
	}
	if _, err := eng.Subscribe(1024); err != nil {
		return nil, nil, err
	}
	return eng, Writes(events), nil
}

// Writes filters the content writes out of an event stream.
func Writes(events []graph.Event) []graph.Event {
	var out []graph.Event
	for _, ev := range events {
		if ev.Kind == graph.ContentWrite {
			out = append(out, ev)
		}
	}
	return out
}

// PullReadEngine builds the pull-read fixture behind the OpPullRead*
// micro-benchmarks: the standard 2000-node social graph with all-pull
// decisions (every read evaluates its subtree on demand), pre-loaded with
// one pass of the fixture's writes. It returns the engine and the read
// events to measure.
func PullReadEngine(a agg.Aggregate) (*exec.Engine, []graph.Event, error) {
	eng, events, err := MicroEngine("baseline", "pull", a)
	if err != nil {
		return nil, nil, err
	}
	var reads []graph.Event
	for _, ev := range events {
		if ev.Kind == graph.Read {
			reads = append(reads, ev)
		} else if ev.Kind == graph.ContentWrite {
			if err := eng.Write(ev.Node, ev.Value, ev.TS); err != nil {
				return nil, nil, err
			}
		}
	}
	return eng, reads, nil
}

// HubWriters is the in-degree of HubPullEngine's hub reader.
const HubWriters = 3000

// HubPullEngine builds the fixture behind OpTopKPullAfterHub: an all-pull
// TOP-K(3) engine over a hand-built overlay where reader 0, the hub, reads
// writers 0..HubWriters-1 and reader 1 reads writers 0, 1 and 2. Every
// writer's four-tuple window is full of values no other writer holds, so a
// hub read merges 4·HubWriters distinct values and a read of reader 1
// twelve.
func HubPullEngine() (*exec.Engine, error) {
	ov := overlay.New(0)
	hub, small := ov.AddReader(0, 0), ov.AddReader(0, 1)
	for w := graph.NodeID(0); w < HubWriters; w++ {
		ref := ov.AddWriter(w)
		if err := ov.AddEdge(ref, hub, false); err != nil {
			return nil, err
		}
		if w < 3 {
			if err := ov.AddEdge(ref, small, false); err != nil {
				return nil, err
			}
		}
	}
	eng, err := exec.New(ov, agg.TopK{K: 3}, agg.NewTupleWindow(4))
	if err != nil {
		return nil, err
	}
	for w := graph.NodeID(0); w < HubWriters; w++ {
		for j := int64(0); j < 4; j++ {
			if err := eng.Write(w, int64(w)*4+j, j); err != nil {
				return nil, err
			}
		}
	}
	return eng, nil
}

// RunWriteReads is the measurement loop behind OpTopKPullAfterHub: each
// iteration writes one of reader 1's writers — so the read cannot be
// answered from the engine's pull memo — and reads reader 1 through ReadInto
// with a retained result.
func RunWriteReads(b *testing.B, eng *exec.Engine) {
	var res agg.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Write(graph.NodeID(i%3), int64(i%7), int64(i)); err != nil {
			b.Fatal(err)
		}
		if err := eng.ReadInto(1, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// RunReads is the pull-read measurement loop behind the OpPullRead*
// benchmarks: it drives ReadInto with one retained result buffer, the way
// a hot reader loop would, so the reported allocs/op isolate the engine's
// pull evaluation rather than result marshalling. Nothing is written
// meanwhile, so after the first pass a TOP-K read is a pull-memo hit.
func RunReads(b *testing.B, eng *exec.Engine, reads []graph.Event) {
	if len(reads) == 0 {
		b.Fatal("benchfix: no reads in fixture")
	}
	var res agg.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ReadInto(reads[i%len(reads)].Node, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// RunMixed is the mixed read/write measurement loop behind BenchmarkOp*.
func RunMixed(b *testing.B, eng *exec.Engine, events []graph.Event) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i&(len(events)-1)]
		if ev.Kind == graph.Read {
			_, _ = eng.Read(ev.Node)
		} else {
			_ = eng.Write(ev.Node, ev.Value, ev.TS)
		}
	}
}

// MultiMicro builds the multi-query micro-benchmark fixture: a
// core.MultiSystem over the standard 2000-node social graph with n
// attached all-push SUM queries. With shared=true every query uses the
// same compatibility key, so all n share ONE compiled overlay (measuring
// the sharing win); with shared=false each query gets a distinct tuple
// window, so writes fan out to n independent engines (measuring the
// fan-out cost). Returns the multi-system and the fixture's write stream.
func MultiMicro(n int, shared bool) (*core.MultiSystem, []graph.Event, error) {
	g := workload.SocialGraph(2000, 8, 1)
	m := core.NewMulti(g)
	for i := 0; i < n; i++ {
		win := 1
		key := "sum-push-w1"
		if !shared {
			win = i + 1
			key = fmt.Sprintf("sum-push-w%d", win)
		}
		q := core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(win)}
		if _, err := m.Attach(key, q, core.Options{Algorithm: core.Baseline, Mode: core.ModeAllPush}); err != nil {
			return nil, nil, err
		}
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	return m, Writes(workload.Events(wl, 1<<16, 2)), nil
}

// MergedMicro builds the merged-overlay benchmark fixture: n
// partially-overlapping all-push SUM queries over the standard 2000-node
// social graph — query i's readers are the nodes in a wrapping range of
// 1250 ids starting at i*2000/n, so adjacent queries overlap heavily but
// none are identical. With merged=true all n join ONE merge family
// (AttachMerged with a shared family key) and compile into a single merged
// overlay with per-query reader views; with merged=false each compiles its
// own overlay and writes fan out to n independent engines. The ns/op gap
// between the two is the merged-overlay sharing win the paper's multi-query
// construction targets.
func MergedMicro(n int, merged bool) (*core.MultiSystem, []graph.Event, error) {
	const nodes = 2000
	g := workload.SocialGraph(nodes, 8, 1)
	m := core.NewMulti(g)
	famKey := ""
	if merged {
		famKey = "bench-family"
	}
	for i := 0; i < n; i++ {
		lo := graph.NodeID(i * nodes / n)
		hi := (lo + 1250) % nodes
		pred := func(_ *graph.Graph, v graph.NodeID) bool {
			if lo <= hi {
				return v >= lo && v < hi
			}
			return v >= lo || v < hi
		}
		q := core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1), Predicate: pred}
		_, err := m.AttachMerged(fmt.Sprintf("bench-q%d", i), famKey, q,
			core.Options{Algorithm: construct.AlgVNMA, Mode: core.ModeAllPush, Construct: construct.Config{Iterations: 3}})
		if err != nil {
			return nil, nil, err
		}
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	return m, Writes(workload.Events(wl, 1<<16, 2)), nil
}

// MixedBatchFixture builds the unified-ingestion fixture behind
// OpIngestMixedBatch: a MultiSystem over the standard 2000-node social
// graph hosting two maintainable (IOB) queries, plus a 1<<16-event stream
// of content writes with periodic structural churn bursts — every 2048
// events, a burst of 32 edge toggles (each chosen edge alternates add and
// remove, so a full pass over the stream leaves the graph unchanged and
// the stream can loop). The bursts are what the coalesced structural-run
// path batches into one repair per query.
func MixedBatchFixture() (*core.MultiSystem, []graph.Event, error) {
	const nodes = 2000
	g := workload.SocialGraph(nodes, 8, 1)
	m := core.NewMulti(g)
	for _, win := range []int{1, 4} {
		q := core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(win)}
		if _, err := m.Attach(fmt.Sprintf("sum-iob-w%d", win), q, core.Options{
			Algorithm: construct.AlgIOB, Construct: construct.Config{Iterations: 3},
		}); err != nil {
			return nil, nil, err
		}
	}
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	writes := Writes(workload.Events(wl, 1<<16, 2))
	// Deterministic toggle-edge pool: edges not present in the base graph.
	var toggles []graph.Event
	added := map[[2]graph.NodeID]bool{}
	for i := 0; len(toggles) < 64; i++ {
		u := graph.NodeID((i*131 + 17) % nodes)
		v := graph.NodeID((i*197 + 89) % nodes)
		key := [2]graph.NodeID{u, v}
		if u == v || g.HasEdge(u, v) || added[key] {
			continue
		}
		added[key] = true
		toggles = append(toggles,
			graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: v},
			graph.Event{Kind: graph.EdgeRemove, Node: u, Peer: v})
	}
	var events []graph.Event
	ti := 0
	for i, ev := range writes {
		if i > 0 && i%2048 == 0 {
			// Structural burst: 16 add/remove pairs back to back.
			for k := 0; k < 32; k++ {
				events = append(events, toggles[ti%len(toggles)])
				ti++
			}
		}
		events = append(events, ev)
	}
	return m, events, nil
}

// RunApplyBatch drives MultiSystem.Apply over a mixed stream in
// chunks of up to 1024 events, reporting per-event cost. Per-event skip
// errors (an edge toggle cut in half by b.N's last partial chunk and
// re-applied on the next pass) are expected and ignored.
func RunApplyBatch(b *testing.B, m *core.MultiSystem, events []graph.Event) {
	if len(events) == 0 {
		b.Fatal("benchfix: no events in fixture")
	}
	chunk := 1024
	if chunk > len(events) {
		chunk = len(events)
	}
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for done := 0; done < b.N; {
		n := chunk
		if rem := b.N - done; n > rem {
			n = rem
		}
		if off+n > len(events) {
			off = 0
		}
		_, _ = m.Apply(events[off:off+n], graph.NoAdvance)
		off += n
		done += n
	}
}

// RunMultiWrites measures per-write cost of fanning one content update out
// to every query group of a MultiSystem.
func RunMultiWrites(b *testing.B, m *core.MultiSystem, writes []graph.Event) {
	if len(writes) == 0 {
		b.Fatal("benchfix: no writes in fixture")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(writes)
		if _, err := m.Apply(writes[j:j+1], graph.NoAdvance); err != nil {
			b.Fatal(err)
		}
	}
}

// SubscribedEngine builds the subscription fan-out fixture: the standard
// all-push SUM engine with one all-readers subscription of the given
// buffer and NO consumer, so the measured write path includes result
// finalization and steady-state drop-oldest delivery — the worst case a
// slow subscriber can inflict on ingestion.
func SubscribedEngine(buffer int) (*exec.Engine, []graph.Event, error) {
	eng, events, err := MicroEngine("baseline", "push", agg.Sum{})
	if err != nil {
		return nil, nil, err
	}
	if _, err := eng.Subscribe(buffer); err != nil {
		return nil, nil, err
	}
	return eng, Writes(events), nil
}

// RunWrites measures the plain write path over a write-only stream.
func RunWrites(b *testing.B, eng *exec.Engine, writes []graph.Event) {
	if len(writes) == 0 {
		b.Fatal("benchfix: no writes in fixture")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := writes[i%len(writes)]
		if err := eng.Write(ev.Node, ev.Value, ev.TS); err != nil {
			b.Fatal(err)
		}
	}
}

// ExpiryEngine builds the sparse-expiry fixture behind OpExpireSparse: the
// standard 2000-node social graph, all-push SUM over a TimeWindow of width
// T, with every writer seeded once so all 2000 writers hold live window
// state. RunExpireSparse then writes one node and advances the watermark by
// one tick per op, so on average ONE writer expires per op — the
// indexed watermark advance pays O(expired), not O(writers).
func ExpiryEngine(T int64) (*exec.Engine, error) {
	g := workload.SocialGraph(2000, 8, 1)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	ov := construct.Baseline(ag)
	dataflow.DecideAll(ov, overlay.Push)
	eng, err := exec.New(ov, agg.Sum{}, agg.NewTimeWindow(T))
	if err != nil {
		return nil, err
	}
	for v := 0; v < 2000; v++ {
		if err := eng.Write(graph.NodeID(v), 1, int64(v+1)); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// RunExpireSparse is the sparse-expiry measurement loop: one write plus
// one watermark advance per op, timestamps continuing past ExpiryEngine's
// seed.
func RunExpireSparse(b *testing.B, eng *exec.Engine) {
	const nodes = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(nodes + 1 + i)
		if err := eng.Write(graph.NodeID(i%nodes), 1, ts); err != nil {
			b.Fatal(err)
		}
		eng.Apply(nil, ts)
	}
}

// AutotuneShiftFixture builds the workload-drift fixture behind the
// OpAutotuneShiftingZipf pair: one dataflow-mode SUM query over the
// standard 2000-node social graph, planned for a 1:1 Zipf workload with
// one hot set (seed 1), then warmed with a SHIFTED Zipf stream (seed 7)
// whose hot writers and readers land elsewhere — so the compiled push/pull
// decisions are wrong for the traffic actually observed. With tuned=true
// the warm-up interleaves Rebalance passes (what the autotune loop runs on
// each tick, called synchronously to keep the fixture deterministic):
// frontier flips adapt the overlay to the shifted hot set before
// measurement. With tuned=false the stale plan is measured as-is. The ns/op
// gap between the two is the autotune loop's win.
func AutotuneShiftFixture(tuned bool) (*core.System, []graph.Event, error) {
	g := workload.SocialGraph(2000, 8, 1)
	m := core.NewMulti(g)
	plan := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	att, err := m.Attach("autotune-shift-sum",
		core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1)},
		core.Options{Algorithm: core.Baseline})
	if err != nil {
		return nil, nil, err
	}
	sys := att.System()
	if err := sys.Reoptimize(plan); err != nil {
		return nil, nil, err
	}
	shifted := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 7)
	events := workload.Events(shifted, 1<<16, 9)
	// Warm-up: 8 passes over an 8192-event prefix of the shifted stream,
	// one Rebalance per pass when tuned. The untuned fixture runs the
	// identical passes so window state matches.
	for pass := 0; pass < 8; pass++ {
		for _, ev := range events[:1<<13] {
			if ev.Kind == graph.Read {
				_, _ = sys.Engine().Read(ev.Node)
			} else if err := sys.Engine().Write(ev.Node, ev.Value, ev.TS); err != nil {
				return nil, nil, err
			}
		}
		if tuned {
			if _, err := m.Rebalance(); err != nil {
				return nil, nil, err
			}
		}
	}
	return sys, events, nil
}

// RunSystemMixed is the mixed read/write measurement loop over a
// core.System, used by the autotune benches where the push/pull decisions
// differ between fixture builds.
func RunSystemMixed(b *testing.B, sys *core.System, events []graph.Event) {
	if len(events) == 0 {
		b.Fatal("benchfix: no events in fixture")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i&(len(events)-1)]
		if ev.Kind == graph.Read {
			_, _ = sys.Engine().Read(ev.Node)
		} else {
			_ = sys.Engine().Write(ev.Node, ev.Value, ev.TS)
		}
	}
}

// RebuildEngine builds the fixture behind OpRebuild*: a social graph of
// the given size compiled to the baseline overlay with dataflow-optimal
// decisions, pre-loaded with one pass of writes so an install seeds real
// push state. The measured op — exec.Engine.Rebuild on the installed overlay
// — is the whole snapshot transition a Rebalance's flips, a Reoptimize and
// every structural repair lean on; running it at three sizes charts its
// latency against overlay size.
func RebuildEngine(nodes int) (*exec.Engine, *overlay.Overlay, error) {
	g := workload.SocialGraph(nodes, 8, 1)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	ov := construct.Baseline(ag)
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	f, err := dataflow.ComputeFreqs(ov, wl, 1)
	if err != nil {
		return nil, nil, err
	}
	if _, err := dataflow.Decide(ov, f, dataflow.ModelFor(agg.Sum{})); err != nil {
		return nil, nil, err
	}
	eng, err := exec.New(ov, agg.Sum{}, agg.NewTupleWindow(1))
	if err != nil {
		return nil, nil, err
	}
	for i, ev := range Writes(workload.Events(wl, 1<<14, 2)) {
		if err := eng.Write(ev.Node, ev.Value, int64(i+1)); err != nil {
			return nil, nil, err
		}
	}
	return eng, ov, nil
}

// RunRebuild measures repeated installs of ov, the overlay eng already runs.
func RunRebuild(b *testing.B, eng *exec.Engine, ov *overlay.Overlay) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Rebuild(ov, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// RunWriteBatch drives the batch ingest path in chunks of up to chunk
// writes, reporting per-write cost.
func RunWriteBatch(b *testing.B, eng *exec.Engine, writes []graph.Event, chunk int) {
	if len(writes) == 0 {
		b.Fatal("benchfix: no writes in fixture")
	}
	if chunk > len(writes) {
		chunk = len(writes)
	}
	span := len(writes) - chunk + 1 // valid batch start positions
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := chunk
		if rem := b.N - done; n > rem {
			n = rem
		}
		off := done % span
		eng.Apply(writes[off:off+n], graph.NoAdvance)
		done += n
	}
}
