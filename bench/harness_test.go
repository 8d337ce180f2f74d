package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	eagr "repro"
	"repro/internal/graph"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread(1..10) = %v, want 1.0", got)
	}
}

func TestLatencies(t *testing.T) {
	l := newLatencies(4)
	for _, ns := range []int64{1000, 2000, 3000, 4000, 5000} {
		l.add(ns)
	}
	if got := l.us(50); !near(got, 3) {
		t.Errorf("p50 = %v us, want 3", got)
	}
}

// The loop keeps, per position of its cycle, the quiet (low-quantile) time
// of that position's repeats, so repeats the host slowed down move nothing,
// and a cycle of unlike batches is weighed batch by batch.
func TestLoopStatsQuietTimes(t *testing.T) {
	st := newLoopStats(10, 2, 1)
	st.on = true
	// position 0 costs 100 ns, position 1 costs 300 ns (half ack, half one
	// group of 4 reads); two repeats in five of each are slowed 2-10000x
	for rep := 0; rep < 20; rep++ {
		for pos, ns := range []int64{100, 300} {
			switch rep % 5 {
			case 1:
				ns *= 2
			case 3:
				ns *= 10000
			}
			st.begin(pos)
			st.acked(time.Duration(ns / 2))
			st.reads(time.Duration(ns/2), 4)
			st.end()
		}
	}
	if got := st.iterNS(); !near(got, 200) {
		t.Errorf("quiet iteration = %v ns, want 200 (mean of the two positions' quiet times)", got)
	}
	if got := st.throughput(); !near(got, 10*1e9/200) {
		t.Errorf("throughput = %v, want %v", got, 10*1e9/200.0)
	}
	if st.ops() != 400 {
		t.Errorf("ops = %d, want 400", st.ops())
	}
	res := newResult("x", 1, 1, false)
	st.report(res)
	// the median position: between 50 and 150 ns of ack
	if got := res.Metrics["ingest_ack_p50_us"].Value; !near(got, 0.1) {
		t.Errorf("ingest_ack_p50_us = %v, want 0.1", got)
	}
	// read groups of 50 and 150 ns for 4 reads: the median group is 100 ns
	if got := res.Metrics["read_p50_us"].Value; !near(got, 0.025) {
		t.Errorf("read_p50_us = %v, want 0.025", got)
	}
	// the tails keep what the host did
	if got := res.Metrics["ingest_ack_p99_us"].Value; got < 100 {
		t.Errorf("ingest_ack_p99_us = %v, want the slowed repeats in it", got)
	}
	if len(res.Segments["throughput_ops_s"]) != numSlices {
		t.Errorf("%d parts of the loop recorded, want %d", len(res.Segments["throughput_ops_s"]), numSlices)
	}
	st.on = false
	st.begin(0)
	st.acked(time.Second)
	st.end()
	if st.ops() != 400 {
		t.Error("an iteration of the warm-up was kept")
	}
	if newLoopStats(1, 3, 2).throughput() != 0 {
		t.Error("throughput of a loop that never ran must be 0")
	}
}

// A stall in the middle of an open loop must be charged to every operation
// that was due during it, and must not shift the schedule.
func TestPacerLatenessAccounting(t *testing.T) {
	clock := time.Unix(0, 0)
	p := newPacer(1000, 16) // one op per millisecond
	p.now = func() time.Time { return clock }
	p.sleep = func(d time.Duration) { clock = clock.Add(d) }
	p.begin()
	for i := int64(0); i < 3; i++ {
		if due := p.wait(i); !due.Equal(p.start.Add(time.Duration(i) * time.Millisecond)) {
			t.Fatalf("op %d due %v", i, due)
		}
	}
	clock = clock.Add(5 * time.Millisecond) // the system under test stalls
	for i := int64(3); i < 8; i++ {
		due := p.wait(i)
		if want := p.start.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) {
			t.Fatalf("op %d due %v, want %v: the schedule moved", i, due, want)
		}
	}
	late := p.late.ns
	if len(late) != 8 {
		t.Fatalf("%d lateness samples, want 8", len(late))
	}
	// ops 3..7 were due at 3..7 ms; the clock stood at >= 7 ms when op 3 ran
	if late[3] < int64(4*time.Millisecond) {
		t.Errorf("op 3 lateness %v, want >= 4ms", time.Duration(late[3]))
	}
	if late[7] > int64(quantum) {
		t.Errorf("op 7 lateness %v: the generator never caught up", time.Duration(late[7]))
	}
	for i := 4; i < 8; i++ {
		if late[i] > late[i-1] {
			t.Errorf("lateness grew while catching up: %v", late)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "ingest", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "read", Start: 30, End: 60},     // overlaps span 1: counted once
		{ID: 3, Parent: 0, Name: "read", Start: 90, End: 120},    // clipped to the parent
		{ID: 4, Parent: 1, Name: "wal", Start: 15, End: 25},      // grandchild: comes out of ingest only
		{ID: 5, Parent: -1, Name: "open", Start: 200, End: 0},    // never ended: ignored
		{ID: 6, Parent: -1, Name: "op", Start: 300, End: 350},    // no children
		{ID: 7, Parent: 6, Name: "ingest", Start: 310, End: 320}, // second op
	}
	got := selfTimes(spans)
	// op 0: 100 - (10..60 = 50) - (90..100 = 10) = 40; op 6: 50 - 10 = 40
	if lt := got["op"]; lt.Count != 2 || lt.TotalNS != 150 || lt.SelfNS != 80 {
		t.Errorf("op = %+v, want count 2 total 150 self 80", lt)
	}
	if lt := got["ingest"]; lt.Count != 2 || lt.TotalNS != 40 || lt.SelfNS != 30 {
		t.Errorf("ingest = %+v, want count 2 total 40 self 30", lt)
	}
	if lt := got["read"]; lt.TotalNS != 60 || lt.SelfNS != 60 {
		t.Errorf("read = %+v, want total 60 self 60", lt)
	}
	if _, ok := got["open"]; ok {
		t.Error("a span that never ended was counted")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1, 0)) // must not panic
}

func TestOracleWindows(t *testing.T) {
	h := newHistory(4, 2, 8)
	for ts, w := range []struct {
		node graph.NodeID
		v    int64
	}{{0, 5}, {1, 7}, {0, 9}, {2, 1}, {0, 2}} {
		h.record(w.node, w.v, int64(ts+1))
	}
	if got := h.lastTuples(0, 2); len(got) != 2 || got[0] != 9 || got[1] != 2 {
		t.Errorf("lastTuples(0,2) = %v, want [9 2]", got)
	}
	// T=3, expired up to 5: entries with ts > 2 stay (ts 3,4,5)
	tv := h.timeWindowValues(3, 5)
	if len(tv[1]) != 0 || len(tv[0]) != 2 || len(tv[2]) != 1 {
		t.Errorf("timeWindowValues = %v", tv)
	}
	// expired only up to 2: node 0's own write at ts 5 still cuts at 5-3
	tv = h.timeWindowValues(3, 2)
	if len(tv[0]) != 2 || len(tv[1]) != 1 {
		t.Errorf("timeWindowValues with a lagging watermark = %v", tv)
	}
	sum := bruteForce(windowSpec{agg: "sum", T: 3}, []graph.NodeID{0, 2}, h, h.timeWindowValues(3, 5))
	if !sum.Valid || sum.Scalar != 9+2+1 {
		t.Errorf("sum = %+v, want 12", sum)
	}
	top := bruteForce(windowSpec{agg: "topk", k: 2, tuples: 2}, []graph.NodeID{0, 1, 2}, h, nil)
	// values 9,2,7,1 each once: ties break toward the smaller value
	if !sameResult(top, eagr.Result{Valid: true, List: []int64{1, 2}}) {
		t.Errorf("topk = %+v, want [1 2]", top)
	}
	if sameResult(eagr.Result{Valid: true, Scalar: 1}, eagr.Result{Valid: true, Scalar: 2}) {
		t.Error("different scalars compared equal")
	}
}

func TestOracleTopology(t *testing.T) {
	g := graph.NewWithNodes(4)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {0, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	m := newGraphModel(g)
	if r := topoBrute("triangles", m, 0); r.Scalar != 1 {
		t.Errorf("triangles(0) = %d, want 1", r.Scalar)
	}
	// ego 0 has neighbours 1,2,3: one connected pair of three
	if r := topoBrute("density", m, 0); r.Scalar != eagr.TopoScale/3 {
		t.Errorf("density(0) = %d, want %d", r.Scalar, eagr.TopoScale/3)
	}
	m.apply(graph.Event{Kind: graph.EdgeRemove, Node: 1, Peer: 2})
	if r := topoBrute("triangles", m, 0); r.Scalar != 0 {
		t.Errorf("triangles(0) after removing 1→2 = %d, want 0", r.Scalar)
	}
}

// A churn cycle must leave the graph where it started, with every event
// valid when it is applied.
func TestChurnCycleReturnsToStart(t *testing.T) {
	g := socialGraph(200, 5)
	cycle := churnCycle(g, 3, 64, 0.25, 2, 7)
	if len(cycle) != 6 {
		t.Fatalf("%d batches, want 6", len(cycle))
	}
	work := g.Clone()
	structural := 0
	for _, batch := range cycle {
		if len(batch) != 64 {
			t.Fatalf("batch of %d events", len(batch))
		}
		for _, ev := range batch {
			var err error
			switch ev.Kind {
			case graph.EdgeAdd:
				err = work.AddEdge(ev.Node, ev.Peer)
				structural++
			case graph.EdgeRemove:
				err = work.RemoveEdge(ev.Node, ev.Peer)
				structural++
			}
			if err != nil {
				t.Fatalf("invalid event %+v: %v", ev, err)
			}
		}
	}
	if structural != 6*16 {
		t.Errorf("%d structural events, want %d", structural, 6*16)
	}
	if work.NumEdges() != g.NumEdges() {
		t.Fatalf("cycle left %d edges, started with %d", work.NumEdges(), g.NumEdges())
	}
	g.ForEachNode(func(v graph.NodeID) {
		for _, u := range g.In(v) {
			if !work.HasEdge(u, v) {
				t.Errorf("edge %d→%d lost", u, v)
			}
		}
	})
}

func TestCompareVerdicts(t *testing.T) {
	a := side{median: 100, spread: 0.02}
	for _, c := range []struct {
		b      side
		better string
		want   string
	}{
		{side{median: 104, spread: 0.02}, "lower", verdictWithin},
		{side{median: 120, spread: 0.02}, "lower", verdictWorse},
		{side{median: 80, spread: 0.02}, "lower", verdictBetter},
		{side{median: 120, spread: 0.02}, "higher", verdictBetter},
		{side{median: 80, spread: 0.02}, "higher", verdictWorse},
		{side{median: 120, spread: 0.30}, "lower", verdictUnresolved},
	} {
		if got, _ := verdict(a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(100 → %v, %s) = %s, want %s", c.b.median, c.better, got, c.want)
		}
	}
	rec := func(v float64) *runRecord {
		r := newResult("feed_mixed", 1, 1, false)
		for _, d := range endToEnd {
			r.set(d.Name, v)
		}
		return &runRecord{Runs: []*runResult{r}}
	}
	var out bytes.Buffer
	if code := printComparison(rec(100), rec(150), &out); code != 1 {
		t.Errorf("a 50%% regression compared with exit code %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "throughput_ops_s") || !strings.Contains(out.String(), verdictBetter) {
		t.Errorf("comparison lacks rows or verdicts:\n%s", out.String())
	}
}

// BENCHMARK.json is written by hand; the registry in metrics.go is what
// the program emits. They must name the same things.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the registry", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the registry %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the registry %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	for _, w := range allWorkloads() {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(allWorkloads()) != len(workloads) {
		t.Errorf("%d workloads registered, %d implemented", len(allWorkloads()), len(workloads))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
}

// The smoke pass: every workload, untraced and traced, at toy sizes,
// against real child binaries on ephemeral ports. It checks the harness
// (every metric emitted, oracle green, no child or scratch directory left
// behind), not any number.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass builds and starts the service binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "repro/cmd/eagr-serve", "repro/cmd/eagr-router")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build service binaries: %v\n%s", err, out)
	}
	scratch := t.TempDir() // stands in for the checkout root: .bench_build and bench/out land here
	start := time.Now()
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			res, err := runOne(scratch, bin, w.Name, 3, 0.3, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			var line struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int64                 `json:"attempted"`
				Failed    *int64                 `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(res.line()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: result line does not have exactly the contract's keys: %v %s", w.Name, err, res.line())
			}
			if n := liveChildren(); n != 0 {
				t.Errorf("%s traced=%v left %d child processes", w.Name, traced, n)
			}
			if traced && w.Name != "sharded_http" {
				// bypass check: only sharded_http may start children, so its
				// fleet metrics must be 0 everywhere else
				for _, name := range []string{"router.rss_mb", "server.rss_mb", "router.hop_us"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("%s reports %s = %v without a fleet", w.Name, name, v)
					}
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(scratch, "bench", "out", w.Name+".spans.json")); err != nil {
					t.Errorf("%s: no spans file: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(scratch, ".bench_build", "tmp", "*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	t.Logf("smoke pass of %d workloads x 2 modes: %v", len(allWorkloads()), time.Since(start).Round(time.Millisecond))
}
