package experiments

import (
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// execGraph returns the graph used for the throughput experiments (the
// paper's primary graph is LiveJournal; ours is the social-lj stand-in).
func execGraph(cfg Config) workload.Dataset {
	if cfg.Quick {
		return workload.Dataset{Name: "social-lj", Kind: "social",
			Graph: workload.SocialGraph(800*cfg.Scale, 8, cfg.Seed+1)}
	}
	return workload.Dataset{Name: "social-lj", Kind: "social",
		Graph: workload.SocialGraph(4000*cfg.Scale, 10, cfg.Seed+1)}
}

// overlayFor builds (alg, ag) or the baseline overlay.
func overlayFor(alg string, ag *bipartite.AG, iters int) *overlay.Overlay {
	if alg == "baseline" {
		return construct.Baseline(ag)
	}
	res, err := construct.Build(alg, ag, construct.Config{Iterations: iters})
	if err != nil {
		panic(err)
	}
	return res.Overlay
}

// approach bundles an overlay source with a decision mode.
type approach struct {
	name string
	alg  string // overlay construction algorithm or "baseline"
	mode string // "push", "pull", "dataflow"
}

// decideApproach applies the approach's decisions on a clone of the overlay.
func decideApproach(ov *overlay.Overlay, mode string, wl *dataflow.Workload, m dataflow.CostModel, window int) *overlay.Overlay {
	c := ov.Clone()
	switch mode {
	case "push":
		dataflow.DecideAll(c, overlay.Push)
	case "pull":
		dataflow.DecideAll(c, overlay.Pull)
	default:
		f, err := dataflow.ComputeFreqs(c, wl, window)
		if err != nil {
			panic(err)
		}
		if _, err := dataflow.Decide(c, f, m); err != nil {
			panic(err)
		}
	}
	return c
}

// throughputOf runs the event stream against a fresh engine — serially for
// one worker, otherwise split evenly between concurrent Apply and ReadInto
// callers — and returns operations per second.
func throughputOf(ov *overlay.Overlay, a agg.Aggregate, events []graph.Event, workers int) runStats {
	eng, err := exec.New(ov, a, agg.NewTupleWindow(1))
	if err != nil {
		panic(err)
	}
	if workers <= 1 {
		return playSerial(eng, events, 0)
	}
	return playConcurrent(eng, events, (workers+1)/2, (workers+1)/2)
}

var execAggregates = []agg.Aggregate{agg.Sum{}, agg.Max{}, agg.TopK{K: 3}}

// legalAlgs returns the overlay algorithms legal for the aggregate.
func legalAlgs(a agg.Aggregate) []string {
	algs := []string{construct.AlgVNMA, construct.AlgIOB}
	if a.Props().Subtractable {
		algs = append(algs, construct.AlgVNMN)
	}
	if a.Props().DuplicateInsensitive {
		algs = append(algs, construct.AlgVNMD)
	}
	return algs
}

// fig13b reproduces Figure 13(b): all-push vs optimal dataflow vs all-pull
// on the same (VNMA) overlay at write:read 1:1.
func fig13b(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := execGraph(cfg)
	ag := agOf(d)
	base := overlayFor(construct.AlgVNMA, ag, cfg.Iterations)
	wl := workload.ZipfWorkload(d.Graph.MaxID(), 1.0, 1e6, 1, cfg.Seed)
	events := workload.Events(wl, cfg.Events, cfg.Seed)
	t := Table{
		Title:  fmt.Sprintf("Fig 13b: throughput (ops/s) of dataflow decisions vs all-push/all-pull on the VNMA overlay — %s, w:r 1:1", d.Name),
		Header: []string{"aggregate", "overlay-all-push", "overlay-dataflow", "overlay-all-pull"},
		Notes:  "expected: dataflow beats both all-push and all-pull for every aggregate",
	}
	for _, a := range execAggregates {
		m := dataflow.ModelFor(a)
		row := []string{a.Name()}
		for _, mode := range []string{"push", "dataflow", "pull"} {
			ov := decideApproach(base, mode, wl, m, 1)
			st := throughputOf(ov, a, events, 4)
			row = append(row, f0(st.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// fig13a reproduces Figure 13(a): static vs adaptive dataflow decisions on
// a trace whose read popularity shifts mid-stream.
func fig13a(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := execGraph(cfg)
	ag := agOf(d)
	base := overlayFor(construct.AlgVNMA, ag, cfg.Iterations)
	const nChunksTotal = 12
	chunk := cfg.Events / nChunksTotal
	if chunk < 1000 {
		chunk = 1000
	}
	// The shifted readers are the ones whose on-demand evaluation is most
	// expensive (highest in-degree) — the paper boosts the readers with
	// the highest read latencies.
	costOf := func(v graph.NodeID) float64 { return float64(d.Graph.InDegree(v)) }
	tr := workload.SyntheticTrace(d.Graph.MaxID(), chunk*nChunksTotal, 0.25, 0.1, 0.8, cfg.Seed, costOf)
	a := agg.TopK{K: 3}
	m := dataflow.ModelFor(a)
	t := Table{
		Title:  fmt.Sprintf("Fig 13a: time (ms) per %d-query chunk; read popularity shifts at chunk %d — %s", chunk, nChunksTotal/2+1, d.Name),
		Header: []string{"chunk", "all-pull", "all-push", "static-dataflow", "adaptive-dataflow"},
		Notes:  "expected: static matches adaptive before the shift, degrades after; adaptive recovers within a chunk or two",
	}
	type runner struct {
		name    string
		ov      *overlay.Overlay
		eng     *exec.Engine
		adaptor *dataflow.Adaptor
	}
	mkEngine := func(ov *overlay.Overlay) *exec.Engine {
		e, err := exec.New(ov, a, agg.NewTupleWindow(1))
		if err != nil {
			panic(err)
		}
		return e
	}
	runners := []*runner{
		{name: "all-pull", ov: decideApproach(base, "pull", tr.Before, m, 1)},
		{name: "all-push", ov: decideApproach(base, "push", tr.Before, m, 1)},
		{name: "static", ov: decideApproach(base, "dataflow", tr.Before, m, 1)},
		{name: "adaptive", ov: decideApproach(base, "dataflow", tr.Before, m, 1)},
	}
	for _, r := range runners {
		r.eng = mkEngine(r.ov)
		if r.name == "adaptive" {
			r.adaptor = dataflow.NewAdaptor(r.ov, m)
		}
	}
	nChunks := len(tr.Events) / chunk
	for c := 0; c < nChunks; c++ {
		row := []string{i0(c + 1)}
		slice := tr.Events[c*chunk : (c+1)*chunk]
		for _, r := range runners {
			start := time.Now()
			for _, ev := range slice {
				if ev.Kind == graph.Read {
					_, _ = r.eng.Read(ev.Node)
				} else {
					_ = r.eng.Write(ev.Node, ev.Value, ev.TS)
				}
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if r.adaptor != nil {
				pushes, pulls := r.eng.Observations()
				r.adaptor.ObserveBatch(pushes, pulls)
				if flips := r.adaptor.Rebalance(); flips > 0 {
					_ = r.eng.Rebuild(r.ov, nil)
				}
			}
			row = append(row, f1(ms))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// fig13c reproduces Figure 13(c): read latencies as the pull:push cost
// ratio used by the optimizer grows (pushes get favored, latency drops).
func fig13c(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := execGraph(cfg)
	ag := agOf(d)
	base := overlayFor(construct.AlgVNMA, ag, cfg.Iterations)
	wl := workload.ZipfWorkload(d.Graph.MaxID(), 1.0, 1e6, 1, cfg.Seed)
	events := workload.Events(wl, cfg.Events/2, cfg.Seed)
	a := agg.TopK{K: 3}
	t := Table{
		Title:  fmt.Sprintf("Fig 13c: TOP-K read latency (µs) vs pull:push cost ratio — %s (serial, isolated)", d.Name),
		Header: []string{"config", "avg", "p95", "worst"},
		Notes:  "expected: higher pull cost favors push decisions, driving read latencies down toward the all-push floor",
	}
	configs := []struct {
		name string
		mode string
		pull float64
	}{
		{"all-pull", "pull", 0},
		{"1:1", "dataflow", 1},
		{"1:2", "dataflow", 2},
		{"1:5", "dataflow", 5},
		{"1:10", "dataflow", 10},
		{"1:20", "dataflow", 20},
		{"1:30", "dataflow", 30},
		{"all-push", "push", 0},
	}
	for _, c := range configs {
		m := dataflow.CostModel(dataflow.WeightedLinear{})
		if c.pull > 0 {
			m = dataflow.Scaled{Base: m, PullFactor: c.pull}
		}
		ov := decideApproach(base, c.mode, wl, m, 1)
		eng, err := exec.New(ov, a, agg.NewTupleWindow(1))
		if err != nil {
			panic(err)
		}
		st := playSerial(eng, events, 8)
		t.Rows = append(t.Rows, []string{
			c.name,
			f1(float64(st.AvgLatency.Nanoseconds()) / 1000),
			f1(float64(st.P95Latency.Nanoseconds()) / 1000),
			f1(float64(st.WorstLatency.Nanoseconds()) / 1000),
		})
	}
	return []Table{t}
}

// fig13d reproduces Figure 13(d): throughput as the number of worker
// threads grows (TOP-K, w:r 1:1).
func fig13d(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := execGraph(cfg)
	ag := agOf(d)
	base := overlayFor(construct.AlgVNMA, ag, cfg.Iterations)
	wl := workload.ZipfWorkload(d.Graph.MaxID(), 1.0, 1e6, 1, cfg.Seed)
	events := workload.Events(wl, cfg.Events, cfg.Seed)
	a := agg.TopK{K: 3}
	m := dataflow.ModelFor(a)
	t := Table{
		Title:  fmt.Sprintf("Fig 13d: TOP-K throughput (ops/s) vs worker threads (concurrent Apply + ReadInto callers) — %s, w:r 1:1", d.Name),
		Header: []string{"threads", "vnma-dataflow", "all-push", "all-pull"},
		Notes:  "expected (paper, 24 cores): steady scaling to ~24 threads then plateau; on this host scaling plateaus at the core count",
	}
	for _, threads := range []int{1, 2, 4, 8, 16, 24, 32, 48} {
		row := []string{i0(threads)}
		for _, mode := range []string{"dataflow", "push", "pull"} {
			var ov *overlay.Overlay
			switch mode {
			case "dataflow":
				ov = decideApproach(base, mode, wl, m, 1)
			default:
				ov = decideApproach(construct.Baseline(ag), mode, wl, m, 1)
			}
			st := throughputOf(ov, a, events, threads)
			row = append(row, f0(st.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// fig14a reproduces Figure 14(a): end-to-end throughput across write:read
// ratios for SUM, MAX and TOP-K under all approaches.
func fig14a(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := execGraph(cfg)
	ag := agOf(d)
	ratios := []float64{0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20}
	if cfg.Quick {
		ratios = []float64{0.1, 0.5, 1, 2, 10}
	}
	var tables []Table
	for _, a := range execAggregates {
		m := dataflow.ModelFor(a)
		approaches := []approach{
			{"all-pull", "baseline", "pull"},
			{"all-push", "baseline", "push"},
		}
		for _, alg := range legalAlgs(a) {
			approaches = append(approaches, approach{alg, alg, "dataflow"})
		}
		// Build each overlay once; decisions are re-made per ratio.
		built := map[string]*overlay.Overlay{}
		for _, ap := range approaches {
			if _, ok := built[ap.alg]; !ok {
				built[ap.alg] = overlayFor(ap.alg, ag, cfg.Iterations)
			}
		}
		t := Table{
			Title:  fmt.Sprintf("Fig 14a: end-to-end throughput (ops/s) vs write:read ratio — %s, %s", a.Name(), d.Name),
			Header: []string{"w:r"},
			Notes:  "expected: overlay+dataflow beats both baselines at every ratio; all-push wins over all-pull only for read-heavy ratios; margin largest for TOP-K",
		}
		for _, ap := range approaches {
			t.Header = append(t.Header, ap.name)
		}
		for _, ratio := range ratios {
			wl := workload.ZipfWorkload(d.Graph.MaxID(), 1.0, 1e6, ratio, cfg.Seed)
			events := workload.Events(wl, cfg.Events, cfg.Seed+int64(ratio*100))
			row := []string{fmt.Sprintf("%g", ratio)}
			for _, ap := range approaches {
				ov := decideApproach(built[ap.alg], ap.mode, wl, m, 1)
				st := throughputOf(ov, a, events, 4)
				row = append(row, f0(st.Throughput))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// fig14b reproduces Figure 14(b): the benefit of partial pre-computation by
// node splitting (§4.7) as a throughput ratio.
func fig14b(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := execGraph(cfg)
	ag := agOf(d)
	base := overlayFor(construct.AlgVNMA, ag, cfg.Iterations)
	ratios := []float64{0.01, 0.1, 1, 10}
	t := Table{
		Title:  fmt.Sprintf("Fig 14b: throughput ratio with/without node splitting — %s", d.Name),
		Header: []string{"w:r", "sum", "max", "topk"},
		Notes:  "expected: splitting helps most near w:r = 1 (paper: >2x); little effect at the extremes",
	}
	for _, ratio := range ratios {
		wl := workload.ZipfWorkload(d.Graph.MaxID(), 1.0, 1e6, ratio, cfg.Seed)
		events := workload.Events(wl, cfg.Events, cfg.Seed)
		row := []string{fmt.Sprintf("%g", ratio)}
		for _, a := range execAggregates {
			m := dataflow.ModelFor(a)
			plain := decideApproach(base, "dataflow", wl, m, 1)
			stPlain := throughputOf(plain, a, events, 4)

			split := base.Clone()
			f, err := dataflow.ComputeFreqs(split, wl, 1)
			if err != nil {
				panic(err)
			}
			if _, err := dataflow.SplitNodes(split, f, m); err != nil {
				panic(err)
			}
			f, err = dataflow.ComputeFreqs(split, wl, 1)
			if err != nil {
				panic(err)
			}
			if _, err := dataflow.Decide(split, f, m); err != nil {
				panic(err)
			}
			stSplit := throughputOf(split, a, events, 4)
			row = append(row, f2(stSplit.Throughput/stPlain.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// fig14c reproduces Figure 14(c): throughput for 2-hop neighborhoods.
func fig14c(cfg Config) []Table {
	cfg = cfg.withDefaults()
	n := 500 * cfg.Scale
	if !cfg.Quick {
		n = 1200 * cfg.Scale
	}
	g := workload.SocialGraph(n, 5, cfg.Seed+1)
	ag2 := bipartite.Build(g, graph.KHopIn{K: 2}, graph.AllNodes)
	base := overlayFor(construct.AlgVNMA, ag2, cfg.Iterations)
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, cfg.Seed)
	events := workload.Events(wl, cfg.Events/2, cfg.Seed)
	t := Table{
		Title:  fmt.Sprintf("Fig 14c: 2-hop aggregate throughput (ops/s), w:r 1:1 — social graph %d nodes", n),
		Header: []string{"aggregate", "all-push", "overlay-dataflow", "all-pull"},
		Notes:  "expected: the overlay's relative advantage is larger for 2-hop than 1-hop (more sharing opportunity)",
	}
	for _, a := range execAggregates {
		m := dataflow.ModelFor(a)
		row := []string{a.Name()}
		for _, mode := range []string{"push", "dataflow", "pull"} {
			var ov *overlay.Overlay
			if mode == "dataflow" {
				ov = decideApproach(base, mode, wl, m, 1)
			} else {
				ov = decideApproach(construct.Baseline(ag2), mode, wl, m, 1)
			}
			st := throughputOf(ov, a, events, 4)
			row = append(row, f0(st.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// headline reproduces the paper's headline claim at reduced scale: build a
// large graph, compile the overlay, and measure sustained update+query
// throughput (the paper reports >500k/s on 320M nodes+edges with 24 cores).
func headline(cfg Config) []Table {
	cfg = cfg.withDefaults()
	n := 20000 * cfg.Scale
	if cfg.Quick {
		n = 4000 * cfg.Scale
	}
	g := workload.SocialGraph(n, 10, cfg.Seed)
	ag := bipartite.Build(g, graph.InNeighbors{}, graph.AllNodes)
	start := time.Now()
	ov := overlayFor(construct.AlgVNMA, ag, cfg.Iterations)
	buildTime := time.Since(start)
	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, cfg.Seed)
	a := agg.Sum{}
	ovd := decideApproach(ov, "dataflow", wl, dataflow.ModelFor(a), 1)
	events := workload.Events(wl, cfg.Events*2, cfg.Seed)
	st := throughputOf(ovd, a, events, 4)
	t := Table{
		Title:  "Headline: scaled-down version of '320M nodes+edges, >500k ops/s on one machine'",
		Header: []string{"nodes", "edges", "SI-%", "build-s", "throughput-ops/s"},
		Notes:  "paper used 24 cores/64GB; scale with -scale and -events to approach the published setting",
	}
	t.Rows = append(t.Rows, []string{
		i0(g.NumNodes()), i0(g.NumEdges()),
		f2(ovd.SharingIndex() * 100),
		f2(buildTime.Seconds()),
		f0(st.Throughput),
	})
	return []Table{t}
}

func init() {
	register("fig13a", "static vs adaptive dataflow on a shifting trace", fig13a)
	register("fig13b", "all-push vs dataflow vs all-pull on one overlay", fig13b)
	register("fig13c", "read latency vs pull:push cost ratio", fig13c)
	register("fig13d", "throughput vs number of worker threads", fig13d)
	register("fig14a", "end-to-end throughput vs write:read ratio", fig14a)
	register("fig14b", "node-splitting benefit", fig14b)
	register("fig14c", "two-hop aggregate throughput", fig14c)
	register("headline", "scaled headline throughput run", headline)
}
