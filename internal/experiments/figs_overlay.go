package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/workload"
)

// datasets returns the four standard evaluation graphs, shrunk in Quick
// mode so benchmarks stay fast.
func datasets(cfg Config) []workload.Dataset {
	if cfg.Quick {
		return []workload.Dataset{
			{Name: "social-lj", Kind: "social", Graph: workload.SocialGraph(1200*cfg.Scale, 8, cfg.Seed+1)},
			{Name: "social-gplus", Kind: "social", Graph: workload.SocialGraph(700*cfg.Scale, 12, cfg.Seed+2)},
			{Name: "web-eu", Kind: "web", Graph: workload.WebGraph(1500*cfg.Scale, 24, 12, cfg.Seed+3)},
			{Name: "web-uk", Kind: "web", Graph: workload.WebGraph(2000*cfg.Scale, 32, 14, cfg.Seed+4)},
		}
	}
	return workload.StandardDatasets(cfg.Scale, cfg.Seed)
}

func agOf(d workload.Dataset) *bipartite.AG {
	return bipartite.Build(d.Graph, graph.InNeighbors{}, graph.AllNodes)
}

// constructionAlgorithms are the four algorithms compared in Figure 8.
var constructionAlgorithms = []string{
	construct.AlgVNMA, construct.AlgVNMN, construct.AlgVNMD, construct.AlgIOB,
}

// fig8 reproduces Figure 8: average sharing index per iteration for each
// construction algorithm on each graph.
func fig8(cfg Config) []Table {
	cfg = cfg.withDefaults()
	var tables []Table
	for _, d := range datasets(cfg) {
		ag := agOf(d)
		histories := make(map[string][]float64)
		maxLen := 0
		for _, alg := range constructionAlgorithms {
			res, err := construct.Build(alg, ag, construct.Config{Iterations: cfg.Iterations})
			if err != nil {
				panic(err)
			}
			h := res.SharingIndexHistory
			histories[alg] = h
			if len(h) > maxLen {
				maxLen = len(h)
			}
		}
		t := Table{
			Title:  fmt.Sprintf("Fig 8: sharing index per iteration — %s (%d nodes, %d edges)", d.Name, d.Graph.NumNodes(), d.Graph.NumEdges()),
			Header: append([]string{"iter"}, constructionAlgorithms...),
			Notes:  "expected: IOB highest and fastest to converge; VNMN/VNMD > VNMA; web >> social",
		}
		for i := 0; i < maxLen; i++ {
			row := []string{i0(i + 1)}
			for _, alg := range constructionAlgorithms {
				h := histories[alg]
				if i < len(h) {
					row = append(row, f2(h[i]*100))
				} else {
					row = append(row, f2(h[len(h)-1]*100))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// fig9 reproduces Figure 9: the effect of the chunk size on VNM, against
// the adaptive VNM_A.
func fig9(cfg Config) []Table {
	cfg = cfg.withDefaults()
	chunks := []int{4, 10, 20, 50, 100}
	ds := datasets(cfg)
	use := []workload.Dataset{ds[0], ds[2]} // one social, one web
	t := Table{
		Title:  "Fig 9: sharing index (%) vs chunk size — VNM fixed vs VNMA(100)",
		Header: []string{"chunk"},
		Notes:  "expected: VNM sensitive to chunk size with graph-dependent optimum; VNMA matches the best fixed chunk",
	}
	for _, d := range use {
		t.Header = append(t.Header, "vnm:"+d.Name)
	}
	results := make([][]string, len(chunks))
	for i, c := range chunks {
		results[i] = []string{i0(c)}
	}
	var vnmaRow = []string{"vnma"}
	for _, d := range use {
		ag := agOf(d)
		for i, c := range chunks {
			res, err := construct.Build(construct.AlgVNM, ag,
				construct.Config{Iterations: cfg.Iterations, ChunkSize: c})
			if err != nil {
				panic(err)
			}
			results[i] = append(results[i], f2(res.Overlay.SharingIndex()*100))
		}
		res, err := construct.Build(construct.AlgVNMA, ag,
			construct.Config{Iterations: cfg.Iterations, ChunkSize: 100})
		if err != nil {
			panic(err)
		}
		vnmaRow = append(vnmaRow, f2(res.Overlay.SharingIndex()*100))
	}
	t.Rows = append(results, vnmaRow)
	return []Table{t}
}

// fig10a reproduces Figure 10(a): cumulative construction time per
// iteration on the primary social graph.
func fig10a(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := datasets(cfg)[0]
	ag := agOf(d)
	t := Table{
		Title:  fmt.Sprintf("Fig 10a: cumulative construction time (ms) per iteration — %s", d.Name),
		Header: append([]string{"iter"}, constructionAlgorithms...),
		Notes:  "expected: IOB slower per early iteration but converges in fewer; VNMN/VNMD cost more per iteration than VNMA",
	}
	times := make(map[string][]time.Duration)
	maxLen := 0
	for _, alg := range constructionAlgorithms {
		res, err := construct.Build(alg, ag, construct.Config{Iterations: cfg.Iterations})
		if err != nil {
			panic(err)
		}
		times[alg] = res.IterTimes
		if len(res.IterTimes) > maxLen {
			maxLen = len(res.IterTimes)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := []string{i0(i + 1)}
		for _, alg := range constructionAlgorithms {
			ts := times[alg]
			var cum time.Duration
			for j := 0; j <= i && j < len(ts); j++ {
				cum += ts[j]
			}
			row = append(row, f1(float64(cum.Microseconds())/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// fig10b reproduces Figure 10(b): peak memory growth during construction.
func fig10b(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := datasets(cfg)[0]
	t := Table{
		Title:  fmt.Sprintf("Fig 10b: construction memory growth (MB) — %s", d.Name),
		Header: []string{"algorithm", "heap-growth-MB"},
		Notes:  "expected: IOB uses roughly 2x the memory of the VNM variants (global forward/reverse indexes)",
	}
	for _, alg := range constructionAlgorithms {
		ag := agOf(d) // rebuild per run for comparable baselines
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := construct.Build(alg, ag, construct.Config{Iterations: cfg.Iterations})
		if err != nil {
			panic(err)
		}
		runtime.ReadMemStats(&after)
		growth := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		_ = res
		t.Rows = append(t.Rows, []string{alg, f1(growth)})
	}
	return []Table{t}
}

// fig11a reproduces Figure 11(a): the cumulative distribution of overlay
// depths for VNMA vs IOB.
func fig11a(cfg Config) []Table {
	cfg = cfg.withDefaults()
	d := datasets(cfg)[0]
	ag := agOf(d)
	vnma, err := construct.Build(construct.AlgVNMA, ag, construct.Config{Iterations: cfg.Iterations})
	if err != nil {
		panic(err)
	}
	iob, err := construct.Build(construct.AlgIOB, ag, construct.Config{Iterations: cfg.Iterations})
	if err != nil {
		panic(err)
	}
	vAvg, vHist := vnma.Overlay.DepthStats()
	iAvg, iHist := iob.Overlay.DepthStats()
	maxD := len(vHist)
	if len(iHist) > maxD {
		maxD = len(iHist)
	}
	t := Table{
		Title: fmt.Sprintf("Fig 11a: cumulative %% of readers by overlay depth — %s (avg: vnma %.2f, iob %.2f)",
			d.Name, vAvg, iAvg),
		Header: []string{"depth", "vnma-cum%", "iob-cum%"},
		Notes:  "expected: IOB overlays are significantly deeper than VNMA overlays",
	}
	cum := func(h []int, d int) float64 {
		if len(h) == 0 {
			return 100
		}
		if d >= len(h) {
			d = len(h) - 1
		}
		return 100 * float64(h[d]) / float64(h[len(h)-1])
	}
	for dd := 0; dd < maxD; dd++ {
		t.Rows = append(t.Rows, []string{i0(dd), f1(cum(vHist, dd)), f1(cum(iHist, dd))})
	}
	return []Table{t}
}

// fig11b reproduces Figure 11(b): sharing index as the number of negative
// edges allowed per insertion (k1) grows.
func fig11b(cfg Config) []Table {
	cfg = cfg.withDefaults()
	ds := datasets(cfg)
	use := []workload.Dataset{ds[0], ds[1], ds[2]}
	t := Table{
		Title:  "Fig 11b: sharing index (%) vs negative edges allowed per insertion (k1)",
		Header: []string{"k1"},
		Notes:  "expected: SI improves sharply up to k1≈3-4 and then flattens",
	}
	for _, d := range use {
		t.Header = append(t.Header, d.Name)
	}
	for k1 := 0; k1 <= 5; k1++ {
		row := []string{i0(k1)}
		for _, d := range use {
			ag := agOf(d)
			var si float64
			if k1 == 0 {
				res, err := construct.Build(construct.AlgVNMA, ag,
					construct.Config{Iterations: cfg.Iterations})
				if err != nil {
					panic(err)
				}
				si = res.Overlay.SharingIndex()
			} else {
				res, err := construct.Build(construct.AlgVNMN, ag,
					construct.Config{Iterations: cfg.Iterations, NegK1: k1, NegK2: 5})
				if err != nil {
					panic(err)
				}
				si = res.Overlay.SharingIndex()
			}
			row = append(row, f2(si*100))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// pruneFor builds a VNMA overlay for the dataset and reports pruning
// effectiveness at the given write:read ratio.
func pruneFor(ag *bipartite.AG, maxID int, iters int, ratio float64, seed int64) dataflow.PruneStats {
	res, err := construct.Build(construct.AlgVNMA, ag, construct.Config{Iterations: iters})
	if err != nil {
		panic(err)
	}
	top := res.Overlay.Flatten()
	f, err := dataflow.Frequencies(top, workload.ZipfWorkload(maxID, 1.0, 1e6, ratio, seed), 1)
	if err != nil {
		panic(err)
	}
	_, st := dataflow.Partition(top, f, dataflow.ConstLinear{})
	return st
}

// fig12a reproduces Figure 12(a): pruning effectiveness per graph at 1:1.
func fig12a(cfg Config) []Table {
	cfg = cfg.withDefaults()
	t := Table{
		Title: "Fig 12a: max-flow input reduction by P1/P2 pruning (write:read 1:1)",
		Header: []string{"graph", "graph-nodes-before", "virtual-before",
			"graph-nodes-after", "virtual-after", "survivors-%", "components", "largest"},
		Notes: "expected: <=14% of nodes survive pruning; survivors form many small components",
	}
	for _, d := range datasets(cfg) {
		ag := agOf(d)
		st := pruneFor(ag, d.Graph.MaxID(), cfg.Iterations, 1, cfg.Seed)
		pct := 0.0
		if st.NodesBefore > 0 {
			pct = 100 * float64(st.NodesAfter) / float64(st.NodesBefore)
		}
		t.Rows = append(t.Rows, []string{
			d.Name, i0(st.GraphNodesBefore), i0(st.VirtualNodesBefore),
			i0(st.GraphNodesAfter), i0(st.VirtualNodesAfter),
			f1(pct), i0(st.Components), i0(st.LargestComponent),
		})
	}
	return []Table{t}
}

// fig12b reproduces Figure 12(b): pruning vs write:read ratio on the large
// web graph.
func fig12b(cfg Config) []Table {
	cfg = cfg.withDefaults()
	ds := datasets(cfg)
	d := ds[3] // web-uk
	ag := agOf(d)
	t := Table{
		Title:  fmt.Sprintf("Fig 12b: pruning vs write:read ratio — %s", d.Name),
		Header: []string{"w:r", "nodes-before", "nodes-after", "survivors-%", "components"},
		Notes:  "expected: pruning least effective at w:r = 1 (conflicts most likely)",
	}
	for _, ratio := range []float64{0.1, 0.2, 0.5, 1, 2, 5, 10} {
		st := pruneFor(ag, d.Graph.MaxID(), cfg.Iterations, ratio, cfg.Seed)
		pct := 0.0
		if st.NodesBefore > 0 {
			pct = 100 * float64(st.NodesAfter) / float64(st.NodesBefore)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", ratio), i0(st.NodesBefore), i0(st.NodesAfter),
			f1(pct), i0(st.Components),
		})
	}
	return []Table{t}
}

func init() {
	register("fig8", "sharing index per iteration, 4 algorithms x 4 graphs", fig8)
	register("fig9", "effect of chunk size on VNM vs adaptive VNMA", fig9)
	register("fig10a", "construction time per iteration", fig10a)
	register("fig10b", "construction memory consumption", fig10b)
	register("fig11a", "overlay depth CDF, VNMA vs IOB", fig11a)
	register("fig11b", "sharing index vs negative edges per insertion", fig11b)
	register("fig12a", "pruning effectiveness per graph at 1:1", fig12a)
	register("fig12b", "pruning effectiveness vs write:read ratio", fig12b)
}
