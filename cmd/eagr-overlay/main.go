// Command eagr-overlay builds an aggregation overlay for a synthetic graph
// and reports its structure: sharing index, node/edge counts, depth
// distribution, and the effect of the dataflow decisions.
//
// Usage:
//
//	eagr-overlay -graph social -nodes 5000 -alg vnma
//	eagr-overlay -graph web -alg iob -iterations 5 -ratio 2
//	eagr-overlay -graph social -nodes 2000 -merge workload.json
//
// With -merge, the named file holds a JSON array of query specs (the wire
// shape of the HTTP POST /queries body: {"aggregate","windowTuples",
// "windowTime","hops","continuous","mode"}); the command registers every
// query on one multi-query session and prints how they group into merge
// families — which queries share one merged overlay — plus the sharing
// statistics of each family versus compiling the queries separately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	eagr "repro"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

func main() {
	var (
		kind  = flag.String("graph", "social", "graph family: social | web")
		nodes = flag.Int("nodes", 5000, "number of nodes")
		deg   = flag.Int("degree", 10, "average degree (social) / template size (web)")
		alg   = flag.String("alg", "vnma", "overlay algorithm: vnm | vnma | vnmn | vnmd | iob | baseline")
		iters = flag.Int("iterations", 10, "construction iterations")
		hops  = flag.Int("hops", 1, "neighborhood hops")
		ratio = flag.Float64("ratio", 1, "write:read ratio for dataflow decisions")
		seed  = flag.Int64("seed", 1, "random seed")
		save  = flag.String("save", "", "write the compiled overlay (with decisions) to this file")
		load  = flag.String("load", "", "load a previously saved overlay instead of constructing")
		merge = flag.String("merge", "", "register the query specs in this JSON file on one session and print merge-family grouping + sharing stats")
	)
	flag.Parse()

	var g *graph.Graph
	switch *kind {
	case "social":
		g = workload.SocialGraph(*nodes, *deg, *seed)
	case "web":
		g = workload.WebGraph(*nodes, 4**deg, *deg, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown graph family %q\n", *kind)
		os.Exit(2)
	}
	fmt.Printf("graph: %s, %d nodes, %d edges\n", *kind, g.NumNodes(), g.NumEdges())

	if *merge != "" {
		if err := runMerge(g, *merge, *alg, *iters); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var n graph.Neighborhood = graph.InNeighbors{}
	if *hops > 1 {
		n = graph.KHopIn{K: *hops}
	}
	ag := bipartite.Build(g, n, graph.AllNodes)
	fmt.Printf("AG: %d readers, %d writers, %d edges\n",
		ag.NumReaders(), ag.NumWriters(), ag.NumEdges())

	start := time.Now()
	var ov *overlay.Overlay
	switch {
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ov, err = overlay.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loaded overlay from %s in %.2fs\n", *load, time.Since(start).Seconds())
	case *alg == "baseline":
		ov = construct.Baseline(ag)
		fmt.Printf("construction took %.2fs\n", time.Since(start).Seconds())
	default:
		res, err := construct.Build(*alg, ag, construct.Config{Iterations: *iters})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ov = res.Overlay
		fmt.Printf("SI per iteration: ")
		for _, si := range res.SharingIndexHistory {
			fmt.Printf("%.1f%% ", si*100)
		}
		fmt.Println()
		fmt.Printf("construction took %.2fs\n", time.Since(start).Seconds())
	}

	top := ov.Flatten()
	st := top.ComputeStats()
	fmt.Printf("overlay: %d writers, %d readers, %d partial aggregators\n",
		st.Writers, st.Readers, st.Partials)
	fmt.Printf("edges: %d (%d negative) vs %d in AG -> sharing index %.1f%%\n",
		st.Edges, st.NegEdges, st.AGEdges, st.SharingIndex*100)
	fmt.Printf("depth: avg %.2f, max %d\n", st.AvgDepth, st.MaxDepth)

	wl := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, *ratio, *seed)
	f, err := dataflow.Frequencies(top, wl, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	top, ps := dataflow.Partition(top, f, dataflow.ConstLinear{})
	push, pull := 0, 0
	for ref, dec := range top.Dec {
		switch {
		case top.Dead[ref]:
		case dec == overlay.Push:
			push++
		default:
			pull++
		}
	}
	fmt.Printf("dataflow decisions (w:r %g): %d push, %d pull\n", *ratio, push, pull)
	fmt.Printf("pruning: %d -> %d nodes (%.1f%%), %d components, largest %d\n",
		ps.NodesBefore, ps.NodesAfter,
		100*float64(ps.NodesAfter)/float64(max(ps.NodesBefore, 1)),
		ps.Components, ps.LargestComponent)

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := overlay.Thaw(top).Save(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("saved compiled overlay to %s\n", *save)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mergeSpec is one query of a -merge workload file (the wire shape of the
// HTTP POST /queries body).
type mergeSpec struct {
	Aggregate    string `json:"aggregate"`
	WindowTuples int    `json:"windowTuples"`
	WindowTime   int64  `json:"windowTime"`
	Hops         int    `json:"hops"`
	Continuous   bool   `json:"continuous"`
	Mode         string `json:"mode"`
}

// runMerge registers every spec on one session and reports the merge-family
// grouping: which queries compiled into one merged overlay, each family's
// overlay statistics, and the edge/partial savings versus compiling every
// query separately.
func runMerge(g *graph.Graph, path, alg string, iters int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var specs []mergeSpec
	if err := json.Unmarshal(raw, &specs); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if len(specs) == 0 {
		return fmt.Errorf("%s: no query specs", path)
	}
	sess, err := eagr.Open(g, eagr.Options{Algorithm: alg, Iterations: iters})
	if err != nil {
		return err
	}
	queries := make([]*eagr.Query, 0, len(specs))
	start := time.Now()
	for i, sp := range specs {
		q, err := sess.Register(eagr.QuerySpec{
			Aggregate:    sp.Aggregate,
			WindowTuples: sp.WindowTuples,
			WindowTime:   sp.WindowTime,
			Hops:         sp.Hops,
			Continuous:   sp.Continuous,
		}, eagr.Options{Algorithm: alg, Iterations: iters, Mode: sp.Mode})
		if err != nil {
			return fmt.Errorf("query %d (%+v): %w", i, sp, err)
		}
		queries = append(queries, q)
	}
	fmt.Printf("registered %d queries in %.2fs\n\n", len(specs), time.Since(start).Seconds())

	// Group handles by their underlying compiled system (= merge family).
	famOf := map[*eagr.Query]int{}
	var famQueries [][]*eagr.Query
	seen := map[any]int{}
	for _, q := range queries {
		sys := q.Internal()
		id, ok := seen[sys]
		if !ok {
			id = len(famQueries)
			seen[sys] = id
			famQueries = append(famQueries, nil)
		}
		famOf[q] = id
		famQueries[id] = append(famQueries[id], q)
	}
	fmt.Printf("%-4s %-10s %-8s %-6s %-6s %-7s %-7s %s\n",
		"qid", "aggregate", "window", "hops", "cont", "family", "shared", "ownReaders")
	for i, q := range queries {
		sp := specs[i]
		win := fmt.Sprintf("c=%d", max(sp.WindowTuples, 1))
		if sp.WindowTime > 0 {
			win = fmt.Sprintf("t=%d", sp.WindowTime)
		}
		shared, _, own := q.Sharing()
		fmt.Printf("%-4d %-10s %-8s %-6d %-6t F%-6d %-7d %d\n",
			q.ID(), sp.Aggregate, win, max(sp.Hops, 1), sp.Continuous,
			famOf[q], shared, own)
	}

	fmt.Printf("\nmerge families: %d (from %d queries)\n", len(famQueries), len(queries))
	totalEdges := 0
	for id, members := range famQueries {
		st := members[0].Stats()
		fmt.Printf("  F%d: %d queries, %d writers, %d readers, %d partials, %d edges (SI %.1f%%), depth %.2f\n",
			id, len(members), st.Writers, st.Readers, st.Partials,
			st.Edges, st.SharingIndex*100, st.AvgDepth)
		totalEdges += st.Edges
	}

	sessSt := sess.Stats()
	fmt.Printf("\nsession: %d groups, %d merged families hosting %d queries\n",
		sessSt.Groups, sessSt.MergedFamilies, sessSt.MergedQueries)
	fmt.Printf("total overlay edges across families: %d\n", totalEdges)

	// Versus-distinct estimate: compile each spec alone and sum its edges.
	distinctEdges, distinctPartials := 0, 0
	for i, sp := range specs {
		solo, err := eagr.Open(g, eagr.Options{Algorithm: alg, Iterations: iters})
		if err != nil {
			return err
		}
		q, err := solo.Register(eagr.QuerySpec{
			Aggregate:    sp.Aggregate,
			WindowTuples: sp.WindowTuples,
			WindowTime:   sp.WindowTime,
			Hops:         sp.Hops,
			Continuous:   sp.Continuous,
		}, eagr.Options{Algorithm: alg, Iterations: iters, Mode: sp.Mode})
		if err != nil {
			return fmt.Errorf("solo query %d: %w", i, err)
		}
		st := q.Stats()
		distinctEdges += st.Edges
		distinctPartials += st.Partials
	}
	famPartials := 0
	for _, members := range famQueries {
		famPartials += members[0].Stats().Partials
	}
	fmt.Printf("distinct compilation would cost: %d edges, %d partials\n", distinctEdges, distinctPartials)
	if distinctEdges > 0 {
		fmt.Printf("merged saving: %.1f%% edges, %.1f%% partials\n",
			100*(1-float64(totalEdges)/float64(distinctEdges)),
			100*(1-float64(famPartials)/float64(max(distinctPartials, 1))))
	}
	return nil
}
