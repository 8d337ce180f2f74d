// Command eagr-bench regenerates the paper's evaluation tables and figures
// (§5). Each experiment prints the same series the corresponding figure
// plots; every table's notes line records the shape the paper's published
// results show, so runs are self-checking.
//
// Usage:
//
//	eagr-bench -experiment fig14a            # one experiment, full size
//	eagr-bench -experiment all -quick        # everything, laptop-quick
//	eagr-bench -list                         # show available experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		name  = flag.String("experiment", "", "experiment to run (figNN, headline, or 'all')")
		list  = flag.Bool("list", false, "list available experiments")
		scale = flag.Int("scale", 1, "dataset scale multiplier")
		evts  = flag.Int("events", 0, "events per throughput measurement (0 = default)")
		iters = flag.Int("iterations", 0, "overlay construction iterations (0 = default)")
		seed  = flag.Int64("seed", 1, "random seed")
		quick = flag.Bool("quick", false, "shrink datasets for a fast pass")
	)
	flag.Parse()

	if *list || *name == "" {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			e, _ := experiments.Get(n)
			fmt.Printf("  %-8s  %s\n", n, e.Desc)
		}
		if *name == "" {
			fmt.Println("\nrun with -experiment <name> or -experiment all")
		}
		return
	}

	cfg := experiments.Config{
		Scale:      *scale,
		Events:     *evts,
		Iterations: *iters,
		Seed:       *seed,
		Quick:      *quick,
	}

	names := []string{*name}
	if *name == "all" {
		names = experiments.Names()
	}
	for _, n := range names {
		e, ok := experiments.Get(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", n)
			os.Exit(2)
		}
		start := time.Now()
		tables := e.Run(cfg)
		for _, t := range tables {
			fmt.Println(t.Format())
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", n, time.Since(start).Seconds())
	}
}
