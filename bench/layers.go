package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	eagr "repro"
	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/topo"
	"repro/internal/wal"
)

// The per-layer budget of the traced run. Each probe replays the workload's
// own inputs straight into one layer's public functions, inside a span; the
// number it reports is read back from the span, so the spans file and the
// metrics cannot disagree. A layer's self time is what is left of the layer
// above it once the layers below are taken out.

const probeRounds = 5 // each replay runs this often; the median round is reported

// spanned runs fn inside a span and returns the span's duration.
func (e *env) spanned(name string, op int64, fn func()) time.Duration {
	id := e.tr.begin(name, -1, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	e.tr.end(id)
	if id < 0 {
		return d // untraced: no span to read back
	}
	s := e.tr.spans[id]
	return time.Duration(s.End - s.Start)
}

// medianRound runs fn probeRounds times, each in a span, and returns the
// median duration.
func (e *env) medianRound(name string, fn func()) time.Duration {
	rounds := probeRounds
	if e.smoke {
		rounds = 1
	}
	ds := make([]float64, rounds)
	for i := range ds {
		ds[i] = float64(e.spanned(name, int64(i), fn))
	}
	return time.Duration(median(ds))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procMeter reads what the process (and, for sharded_http, its children)
// consumed across a phase.
type procMeter struct {
	cpu     time.Duration
	mallocs uint64
	pause   uint64
	kids    []*child
}

func cpuOfSelf() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOfPid reads utime+stime of another process from /proc (clock ticks
// are 100/s on every Linux this runs on).
func cpuOfPid(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

func startMeter(kids ...*child) procMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	pm := procMeter{cpu: cpuOfSelf(), mallocs: m.Mallocs, pause: m.PauseTotalNs, kids: kids}
	for _, k := range kids {
		pm.cpu += cpuOfPid(k.cmd.Process.Pid)
	}
	return pm
}

func (pm procMeter) book(res *runResult, ops int64) {
	end := startMeter(pm.kids...)
	if ops < 1 {
		ops = 1
	}
	res.set("proc.cpu_us_per_op", float64(end.cpu-pm.cpu)/1e3/float64(ops))
	res.set("proc.allocs_per_op", float64(end.mallocs-pm.mallocs)/float64(ops))
	res.set("proc.gc_pause_ms", float64(end.pause-pm.pause)/1e6)
}

// setupChain calls every step of query compilation directly, once, on the
// workload's graph: where setup_s goes.
func setupChain(e *env, graphOf func() *graph.Graph, aggName, alg string) error {
	a, err := agg.Parse(aggName)
	if err != nil {
		return err
	}
	var g *graph.Graph
	e.res.set("workload.graph_gen_ms", ms(e.spanned("workload.graph_gen", 0, func() { g = graphOf() })))
	var ag *bipartite.AG
	e.res.set("bipartite.build_ms", ms(e.spanned("bipartite.Build", 0, func() {
		ag = bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	})))
	var built *construct.Result
	e.res.set("construct.build_ms", ms(e.spanned("construct.Build", 0, func() {
		built, err = construct.Build(alg, ag, construct.Config{})
	})))
	if err != nil {
		return err
	}
	ov := built.Overlay
	depth, _ := ov.DepthStats()
	e.res.set("construct.sharing_index", ov.SharingIndex())
	e.res.set("overlay.partials", float64(len(ov.Partials())))
	e.res.set("overlay.edges", float64(ov.NumEdges()))
	e.res.set("overlay.avg_depth", depth)
	e.res.set("dataflow.decide_ms", ms(e.spanned("dataflow.Decide", 0, func() {
		var f *dataflow.Freqs
		if f, err = dataflow.ComputeFreqs(ov, dataflow.Uniform(g.MaxID(), 1, 1), 1); err == nil {
			_, err = dataflow.Decide(ov, f, dataflow.ModelFor(a))
		}
	})))
	if err != nil {
		return err
	}
	var push, total float64
	ov.ForEachNode(func(_ overlay.NodeRef, n *overlay.Node) {
		total++
		if n.Dec == overlay.Push {
			push++
		}
	})
	e.res.set("dataflow.push_share", push/total)
	e.res.set("core.compile_ms", ms(e.spanned("core.Compile", 0, func() {
		_, err = core.Compile(g, core.Query{Aggregate: a}, core.Options{Algorithm: alg})
	})))
	return err
}

// engines returns the distinct compiled engines behind a session's content
// queries: the "groups" a write fans out to.
func engines(qs []*eagr.Query) []*core.System {
	seen := map[*core.System]bool{}
	var out []*core.System
	for _, q := range qs {
		if sys := q.Internal(); sys != nil && !seen[sys] {
			seen[sys] = true
			out = append(out, sys)
		}
	}
	return out
}

// execProbe replays writes and reads straight into the engines of the
// session's queries (below Session and Ingestor) and reads their push/pull
// counters. It returns Σ ns per write over groups and the mean ns per read.
func execProbe(e *env, sut *libSUT, writes []eagr.Event, reads []graph.NodeID) (writeNS, readNS float64) {
	groups := engines(sut.qs)
	for _, sys := range groups {
		sys.Engine().Observations() // drain what earlier phases left
	}
	w0, r0 := int64(0), int64(0)
	for _, sys := range groups {
		w, r := sys.Engine().Counts()
		w0, r0 = w0+w, r0+r
	}
	d := e.medianRound("exec.Write", func() {
		for _, sys := range groups {
			eng := sys.Engine()
			for _, ev := range writes {
				_ = eng.Write(ev.Node, ev.Value, ev.TS)
			}
		}
	})
	writeNS = float64(d) / float64(len(writes))
	e.res.set("exec.write_ns", writeNS)

	lat := newLatencies(len(reads) * len(groups))
	var res agg.Result
	d = e.spanned("exec.ReadInto", 0, func() {
		for _, sys := range groups {
			eng := sys.Engine()
			for _, v := range reads {
				t0 := time.Now()
				_ = eng.ReadInto(v, &res)
				lat.add(int64(time.Since(t0)))
			}
		}
	})
	if n := len(reads) * len(groups); n > 0 {
		readNS = float64(d) / float64(n)
		e.res.set("exec.read_ns", readNS)
		e.res.set("exec.read_p99_us", lat.us(99))
	}
	var pushes, pulls float64
	w1, r1 := int64(0), int64(0)
	for _, sys := range groups {
		p, q := sys.Engine().Observations()
		for _, c := range p {
			pushes += c
		}
		for _, c := range q {
			pulls += c
		}
		w, r := sys.Engine().Counts()
		w1, r1 = w1+w, r1+r
	}
	if w1 > w0 {
		e.res.set("exec.pushes_per_write", pushes/float64(w1-w0))
	}
	if r1 > r0 {
		e.res.set("exec.pulls_per_read", pulls/float64(r1-r0))
	}
	return writeNS, readNS
}

// resyncProbe is one Session.Rebalance after the timed segments.
func resyncProbe(e *env, sess *eagr.Session) {
	var flips int
	var err error
	d := e.spanned("session.Rebalance", 0, func() { flips, err = sess.Rebalance() })
	if err != nil {
		e.res.failf("rebalance: %v", err)
	}
	e.res.set("exec.resync_ms", ms(d))
	e.res.set("exec.resync_flips", float64(flips))
}

func chunks(evs []eagr.Event, size int) [][]eagr.Event {
	var out [][]eagr.Event
	for len(evs) >= size {
		out = append(out, evs[:size])
		evs = evs[size:]
	}
	return out
}

// ingestProbe measures the layers above the engine on a write-only replay
// of the same events: synchronous Session.ApplyBatch, then an Ingestor with
// one apply worker (the additive budget), then an Ingestor with GOMAXPROCS
// workers (what the pipeline buys), all on one fresh session (windows are
// bounded, so a later replay is not slowed by an earlier one's content).
func ingestProbe(e *env, graphOf func() *graph.Graph, specs []eagr.QuerySpec, opts eagr.Options, writes []eagr.Event, execWriteNS float64) (sessSelf, ingSelf float64, err error) {
	batches := chunks(writes, batchSize)
	n := float64(len(batches) * batchSize)
	sut, err := openLib(graphOf, specs, opts, "")
	if err != nil {
		return 0, 0, err
	}
	apply := e.medianRound("session.ApplyBatch", func() {
		for _, b := range batches {
			_ = sut.sess.ApplyBatch(b)
		}
	})
	applyNS := float64(apply) / n
	sessSelf = applyNS - execWriteNS
	e.res.set("session.apply_batch_ns_per_event", applyNS)
	e.res.set("session.self_ns_per_event", sessSelf)

	through := func(name string, workers int) (float64, error) {
		ing, err := sut.sess.Ingest(eagr.IngestOptions{ApplyWorkers: workers})
		if err != nil {
			return 0, err
		}
		d := e.medianRound(name, func() {
			for _, ev := range writes[:len(batches)*batchSize] {
				_ = ing.SendEvent(ev)
			}
			_ = ing.Flush()
		})
		return float64(d) / n, ing.Close()
	}
	seqNS, err := through("ingest.SendEvent+Flush/workers=1", 1)
	if err != nil {
		return 0, 0, err
	}
	parNS, err := through("ingest.SendEvent+Flush/workers=max", 0)
	if err != nil {
		return 0, 0, err
	}
	ingSelf = seqNS - applyNS
	e.res.set("ingest.send_ns_per_event", seqNS)
	e.res.set("ingest.self_ns_per_event", ingSelf)
	e.res.set("ingest.scaling_ratio", seqNS/parNS)
	return sessSelf, ingSelf, nil
}

// bookIngestor reports an Ingestor's own counters after a phase.
func bookIngestor(e *env, ing *eagr.Ingestor) {
	st := ing.Stats()
	if st.Batches > 0 {
		e.res.set("ingest.events_per_batch", float64(st.Applied)/float64(st.Batches))
	}
	e.res.set("ingest.rejected", float64(st.Rejected))
	if st.Rejected != 0 {
		e.res.failf("%d events rejected by the Ingestor", st.Rejected)
	}
}

// feedLayers: set-up chain, engine, session and Ingestor shares of
// feed_mixed's per-op time.
func feedLayers(e *env, sut *libSUT, specs []eagr.QuerySpec, inputs []iterInput, graphOf func() *graph.Graph, untracedOpsPerSec float64) error {
	if err := setupChain(e, graphOf, "sum", construct.AlgVNMN); err != nil {
		return err
	}
	writes, reads := flatten(inputs, 1<<14, 1<<14)
	writeNS, readNS := execProbe(e, sut, writes, reads)
	resyncProbe(e, sut.sess)
	sessSelf, ingSelf, err := ingestProbe(e, graphOf, specs, eagr.Options{}, writes, writeNS)
	if err != nil {
		return err
	}
	// The budget: half the ops are writes (Ingestor + Session + Σ engines),
	// half are reads (one engine read each). The loop's Ingestor splits a
	// batch over GOMAXPROCS apply workers, so the sum of the sequential
	// shares may exceed the untraced per-op time.
	perOp := 1e9 / untracedOpsPerSec
	e.res.set("trace.budget_frac", (0.5*(ingSelf+sessSelf+writeNS)+0.5*readNS)/perOp)
	return nil
}

// notifyLayers: what a subscriber costs the engine's write path.
func notifyLayers(e *env, sut *libSUT, inputs []iterInput, hot []graph.NodeID, graphOf func() *graph.Graph) error {
	if err := setupChain(e, graphOf, "sum", construct.AlgVNMN); err != nil {
		return err
	}
	writes, _ := flatten(inputs, 1<<14, 0)
	groups := engines(sut.qs)
	replay := func(name string) time.Duration {
		return e.medianRound(name, func() {
			for _, sys := range groups {
				eng := sys.Engine()
				for _, ev := range writes {
					_ = eng.Write(ev.Node, ev.Value, ev.TS)
				}
			}
		})
	}
	bare := replay("exec.Write")
	subs, err := subscribeAll(sut.qs, subBuffer, hot)
	if err != nil {
		return err
	}
	done := consume(subs, nil)
	watched := replay("exec.Write/subscribed")
	cancelAll(subs, done)
	n := float64(len(writes))
	e.res.set("exec.write_ns", float64(bare)/n)
	e.res.set("exec.notify_ns", float64(watched-bare)/n)
	return nil
}

// churnLayers: structural repair and topology maintenance, each alone.
func churnLayers(e *env, sut *libSUT, cycle [][]eagr.Event, egos []graph.NodeID, graphOf func() *graph.Graph) error {
	if err := setupChain(e, graphOf, "sum", construct.AlgIOB); err != nil {
		return err
	}
	var structural, content []eagr.Event
	for _, b := range cycle {
		for _, ev := range b {
			if ev.IsStructural() {
				structural = append(structural, ev)
			} else {
				content = append(content, ev)
			}
		}
	}
	// The whole cycle's structural events return the graph to its start,
	// so every probe below can replay them any number of times.
	runLen := len(structural) / (len(cycle) * churnRuns)
	runs := chunks(structural, runLen)

	// core.structural_us: one pure structural ApplyBatch (one run) on a
	// session of its own.
	fresh, err := openLib(graphOf, []eagr.QuerySpec{{Aggregate: "sum", WindowTuples: 1}}, churnOpts, "")
	if err != nil {
		return err
	}
	d := e.medianRound("session.ApplyBatch/structural", func() {
		for _, r := range runs {
			_ = fresh.sess.ApplyBatch(r)
		}
	})
	e.res.set("core.structural_us", float64(d)/1e3/float64(len(runs)))

	// construct.repair_us_per_edge: the compiled system's own edge repair.
	a, _ := agg.Parse("sum")
	sys, err := core.Compile(graphOf(), core.Query{Aggregate: a}, core.Options{Algorithm: construct.AlgIOB})
	if err != nil {
		return err
	}
	// One edge at a time is milliseconds here, so this replays only the
	// first batch's edge events and, from the cycle's last batch, their
	// inverses: out and back.
	var outAndBack []eagr.Event
	for _, b := range [][]eagr.Event{cycle[0], cycle[len(cycle)-1]} {
		for _, ev := range b {
			if ev.IsStructural() {
				outAndBack = append(outAndBack, ev)
			}
		}
	}
	d = e.medianRound("core.AddGraphEdge/RemoveGraphEdge", func() {
		for _, ev := range outAndBack {
			if ev.Kind == graph.EdgeAdd {
				_ = sys.AddGraphEdge(ev.Node, ev.Peer)
			} else {
				_ = sys.RemoveGraphEdge(ev.Node, ev.Peer)
			}
		}
	})
	e.res.set("construct.repair_us_per_edge", float64(d)/1e3/float64(len(outAndBack)))

	// topo.*: a standalone topology engine with the three views.
	te := topo.NewEngine(graphOf())
	views := map[string]*topo.View{}
	for _, name := range []string{"density", "triangles", "ego-betweenness"} {
		spec, err := topo.Parse(name)
		if err != nil {
			return err
		}
		if views[name], err = te.Acquire(spec, 0); err != nil {
			return err
		}
	}
	d = e.medianRound("topo.EdgeAdded/EdgeRemoved", func() {
		for i, ev := range structural {
			if ev.Kind == graph.EdgeAdd {
				te.EdgeAdded(ev.Node, ev.Peer, int64(i))
			} else {
				te.EdgeRemoved(ev.Node, ev.Peer, int64(i))
			}
		}
	})
	e.res.set("topo.edge_event_ns", float64(d)/float64(len(structural)))
	readAll := func(name string, v *topo.View) float64 {
		d := e.medianRound(name, func() {
			for _, ego := range egos {
				_, _ = v.Read(ego)
			}
		})
		return float64(d) / float64(len(egos))
	}
	e.res.set("topo.density_read_ns", readAll("topo.density.Read", views["density"]))
	e.res.set("topo.triangles_read_ns", readAll("topo.triangles.Read", views["triangles"]))
	e.res.set("topo.betweenness_read_us", readAll("topo.betweenness.Read", views["ego-betweenness"])/1e3)

	// The content side of the same batches, straight into the sum engine.
	for i := range content {
		content[i].TS = int64(i + 1)
	}
	execProbe(e, sut, content, nil)
	apply := e.tr.layer("session.ApplyBatch")
	if apply.Count > 0 {
		e.res.set("session.apply_batch_ns_per_event", float64(apply.TotalNS)/float64(apply.Count*batchSize))
	}
	return nil
}

// durableLayers: the WAL alone, the checkpoint, and what durability costs
// over the same loop without it.
func durableLayers(e *env, dir string, specs []eagr.QuerySpec, inputs []iterInput, graphOf func() *graph.Graph, loop *loopStats) error {
	if err := setupChain(e, graphOf, "sum", construct.AlgVNMN); err != nil {
		return err
	}
	writes, _ := flatten(inputs, 1<<15, 0)
	batches := chunks(writes, batchSize)
	n := float64(len(batches) * batchSize)

	// wal.Log.AppendBatch direct, interval sync as the session uses.
	walDir, err := e.mkdir("wal-direct")
	if err != nil {
		return err
	}
	fs, err := wal.NewOsFS(walDir)
	if err != nil {
		return err
	}
	lg, err := wal.Open(fs, wal.Options{Policy: wal.SyncEvery, Interval: time.Second})
	if err != nil {
		return err
	}
	d := e.medianRound("wal.AppendBatch", func() {
		for _, b := range batches {
			_, _, _ = lg.AppendBatch(b)
		}
	})
	st := lg.LogStats()
	e.res.set("wal.append_ns_per_event", float64(d)/n)
	e.res.set("wal.bytes_per_event", float64(st.Bytes)/(n*probeRounds))
	if err := lg.Close(); err != nil {
		return err
	}
	// 200 batches under per-batch fsync: the sandbox's disk, reported as such.
	syncDir, err := e.mkdir("wal-fsync")
	if err != nil {
		return err
	}
	if fs, err = wal.NewOsFS(syncDir); err != nil {
		return err
	}
	if lg, err = wal.Open(fs, wal.Options{Policy: wal.SyncAlways}); err != nil {
		return err
	}
	fsync := newLatencies(200)
	for i := 0; i < 200 && !e.smoke || i < 10; i++ {
		b := batches[i%len(batches)]
		fsync.add(int64(e.spanned("wal.AppendBatch/fsync", int64(i), func() { _, _, _ = lg.AppendBatch(b) })))
	}
	e.res.set("wal.fsync_p50_us", fsync.us(50))
	if err := lg.Close(); err != nil {
		return err
	}

	// The newest checkpoint the session wrote (timed in w_durable.go).
	if names, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(names) > 0 {
		sort.Strings(names)
		if fi, err := os.Stat(names[len(names)-1]); err == nil {
			e.res.set("wal.checkpoint_bytes", float64(fi.Size()))
		}
	}

	// The same SendEvents+Flush loop on a session without durability, one
	// apply worker as durable sessions have.
	plain, err := openLib(graphOf, specs, eagr.Options{}, "")
	if err != nil {
		return err
	}
	ing, err := plain.sess.Ingest(eagr.IngestOptions{ApplyWorkers: 1})
	if err != nil {
		return err
	}
	d = e.medianRound("ingest.SendEvents+Flush/non-durable", func() {
		for _, b := range batches {
			_, _ = ing.SendEvents(b)
			_ = ing.Flush()
		}
	})
	if err := ing.Close(); err != nil {
		return err
	}
	// Acknowledged batch with the WAL over the same batch without it.
	e.res.set("durability.overhead_ratio", loop.ackNS()/batchSize/(float64(d)/n))
	return nil
}

// shardedLayers: each piece of the service path alone — line parse, the
// HTTP handler without a socket, one server without the router, the wire
// merge, the in-process cluster — and the router hop by subtraction.
func shardedLayers(e *env, fl *fleet, sz shardedSizes, specs []eagr.QuerySpec, inputs []iterInput, in *ingester, nextBatch func() []eagr.Event) error {
	graphOf := func() *graph.Graph { return socialGraph(sz.nodes, sz.degree) }
	if err := setupChain(e, graphOf, "sum", construct.AlgVNMN); err != nil {
		return err
	}
	writes, reads := flatten(inputs, 1<<13, 1<<11)
	batches := chunks(writes, batchSize)
	n := float64(len(batches) * batchSize)
	var buf strings.Builder
	var bodies []string
	var lines [][]byte
	for _, b := range batches {
		buf.Reset()
		for _, ev := range b {
			line := fmt.Sprintf("{\"node\":%d,\"value\":%d,\"ts\":%d}", ev.Node, ev.Value, ev.TS)
			lines = append(lines, []byte(line))
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
		bodies = append(bodies, buf.String())
	}

	d := e.medianRound("server.ParseIngestLine", func() {
		for _, l := range lines {
			_, _ = server.ParseIngestLine(l)
		}
	})
	e.res.set("server.parse_ns_per_line", float64(d)/float64(len(lines)))

	// The handler with no socket: server.New(sess).ServeHTTP.
	sut, err := openLib(graphOf, specs, eagr.Options{}, "")
	if err != nil {
		return err
	}
	srv := server.New(sut.sess)
	defer srv.Close()
	d = e.medianRound("server.ServeHTTP POST /ingest", func() {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
		}
	})
	e.res.set("server.ingest_ns_per_event", float64(d)/n)
	d = e.medianRound("server.ServeHTTP GET read", func() {
		for i, v := range reads {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryPath(sut.qs[i&1].ID(), "read", v), nil))
		}
	})
	e.res.set("server.read_us", float64(d)/1e3/float64(len(reads)))

	// The in-process cluster: same routing and merge, no HTTP.
	cl, err := shard.Open(graphOf(), shard.Options{Shards: numShards})
	if err != nil {
		return err
	}
	defer cl.Close()
	var cqs []*shard.Query
	for _, spec := range specs {
		q, err := cl.Register(spec)
		if err != nil {
			return err
		}
		cqs = append(cqs, q)
	}
	d = e.medianRound("shard.Cluster.SendBatch+Flush", func() {
		for _, b := range batches {
			_ = cl.SendBatch(b)
			_ = cl.Flush()
		}
	})
	e.res.set("shard.cluster_send_ns_per_event", float64(d)/n)
	d = e.medianRound("shard.Query.Read", func() {
		for i, v := range reads {
			_, _ = cqs[i&1].Read(v)
		}
	})
	e.res.set("shard.cluster_read_ns", float64(d)/float64(len(reads)))
	var most, sum float64
	for _, st := range cl.Stats() {
		sum += float64(st.Sent)
		most = max(most, float64(st.Sent))
	}
	if sum > 0 {
		e.res.set("shard.skew", most/(sum/numShards))
	}

	// The wire merge alone: one snapshot per shard, merged and finalized.
	a, _ := agg.Parse("topk(10)")
	wires := make([][]agg.WirePAO, len(reads))
	var wireBytes float64
	for i, v := range reads {
		for s := 0; s < numShards; s++ {
			w, err := cqs[1].ShardQuery(s).ReadWire(v)
			if err != nil {
				return err
			}
			b, _ := json.Marshal(w)
			wireBytes += float64(len(b))
			wires[i] = append(wires[i], w)
		}
	}
	d = e.medianRound("agg.MergeWires", func() {
		for _, ws := range wires {
			_, _ = agg.MergeWires(a, ws)
		}
	})
	e.res.set("agg.merge_wires_ns", float64(d)/float64(len(reads)))
	e.res.set("agg.wire_bytes", wireBytes/float64(len(reads)*numShards))

	// The real processes: one shard directly, then the same through the
	// router; the hop is the difference of the medians.
	direct := newHTTPConn(fl.direct[0])
	defer direct.close()
	router := newHTTPConn(fl.base)
	defer router.close()
	var shardQueries []struct {
		ID int `json:"id"`
	}
	if err := direct.do(http.MethodGet, "/queries", nil, &shardQueries); err != nil {
		return err
	}
	sid := shardQueries[len(shardQueries)-1].ID // the last registered: topk(10)
	timeGets := func(name string, c *httpConn, path func(v graph.NodeID) string) *latencies {
		lat := newLatencies(256)
		var ans json.RawMessage
		for i := 0; i < 256 && !e.smoke || i < 16; i++ {
			v := reads[i%len(reads)]
			lat.add(int64(e.spanned(name, int64(i), func() {
				if err := c.do(http.MethodGet, path(v), nil, &ans); err != nil {
					e.res.failf("%s: %v", name, err)
				}
			})))
		}
		return lat
	}
	directRead := timeGets("http.GET shard read", direct, func(v graph.NodeID) string { return queryPath(sid, "read", v) })
	directPAO := timeGets("http.GET shard pao", direct, func(v graph.NodeID) string { return queryPath(sid, "pao", v) })
	routed := timeGets("http.GET router read", router, func(v graph.NodeID) string { return queryPath(fl.ids[1], "read", v) })
	e.res.set("server.http_read_p50_us", directRead.us(50))
	e.res.set("router.hop_us", routed.us(50)-directPAO.us(50))

	// Ingest hop: the same 256-line body to the router and to one shard.
	// These events go to the live fleet after the oracle has run.
	timePosts := func(name string, target *ingester) *latencies {
		lat := newLatencies(64)
		for i := 0; i < 64 && !e.smoke || i < 8; i++ {
			b := nextBatch()
			lat.add(int64(e.spanned(name, int64(i), func() { target.post(b) })))
		}
		return lat
	}
	routedAck := timePosts("http.POST router ingest", in)
	shardIn := &ingester{conn: direct, path: "/ingest"}
	directAck := timePosts("http.POST shard ingest", shardIn)
	e.res.ops(shardIn.sent, shardIn.failed)
	e.res.set("router.ingest_hop_us", routedAck.us(50)-directAck.us(50))
	return nil
}
