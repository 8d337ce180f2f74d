// Command bench is the repository's benchmark: a single-process load
// driver that runs five named workloads against the public API and the
// real binaries, checks every answer against a brute-force oracle, and
// reports five end-to-end metrics (tracing off) and a per-layer budget
// (traced run). See README.md in this directory.
//
// It is built and started by run.sh, which also builds eagr-serve and
// eagr-router and keeps every build product inside the checkout:
//
//	bash bench/run.sh --workload feed_mixed --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -all                  # every workload, untraced then traced
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

var workloads = map[string]func(*env) error{
	"feed_mixed":     runFeedMixed,
	"notify_open":    runNotifyOpen,
	"churn_topo":     runChurnTopo,
	"durable_ingest": runDurableIngest,
	"sharded_http":   runShardedHTTP,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
		all      = flag.Bool("all", false, "run every workload untraced then traced and write a run record")
		repeat   = flag.Int("repeat", 1, "with -all: runs per workload and mode, each with the next seed")
		out      = flag.String("o", "", "with -all: run record path (default bench/out/run-<time>.json)")
		compare  = flag.Bool("compare", false, "compare two run records: -compare a.json b.json")
		smoke    = flag.Bool("smoke", false, "toy sizes: checks the harness, measures nothing")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric registry defines it")
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("bin", "", "directory holding eagr-serve and eagr-router (default <root>/.bench_build/bin)")
	)
	flag.Parse()
	if *bin == "" {
		*bin = filepath.Join(*root, ".bench_build", "bin")
	}
	switch {
	case *manifest:
		printManifest()
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareRecords(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *all:
		os.Exit(runAll(*root, *bin, *seed, *seconds, *repeat, *smoke, *out))
	case *workload != "":
		res, err := runOne(*root, *bin, *workload, *seed, *seconds, *trace == 1, *smoke)
		if err != nil {
			fatalf("%s: %v", *workload, err)
		}
		res.print(os.Stderr)
		// The whole record (segments, spreads, phase times) for whoever
		// wants more than the contract's last line.
		last := filepath.Join(*root, "bench", "out", fmt.Sprintf("last-%s-trace%d.json", *workload, *trace))
		if err := os.MkdirAll(filepath.Dir(last), 0o755); err == nil {
			_ = writeJSON(last, res)
		}
		fmt.Println(res.line())
		if !res.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSeconds is BENCHMARK.json's run_seconds: what --seconds is when the
// driver runs the benchmark.
const runSeconds = 25

// printManifest writes BENCHMARK.json from the registry in metrics.go, so
// the file cannot drift from what the program emits
// (TestBenchmarkJSONMatchesRegistry checks the committed copy).
func printManifest() {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bound: omitted when 0
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloadDefs, endToEnd, perLayer}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload once. Scratch files live under
// <root>/.bench_build/tmp and are removed on every exit path, including a
// signal; child processes are stopped by their owners' deferred calls and,
// should the driver die, by the kernel (see fleet.go).
func runOne(root, bin, name string, seed int64, seconds float64, traced, smoke bool) (*runResult, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload (have %v)", workloadNames())
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig) // lets the watcher below go
	}()
	go func() {
		if _, ok := <-sig; ok {
			stopAllChildren()
			os.RemoveAll(tmp)
			os.Exit(130)
		}
	}()

	// A 128 MB block the collector never scans. With only a toy graph live,
	// the collector would start a cycle every few megabytes allocated —
	// twice per churn_topo batch, forty times per set-up — each cycle a
	// hand-over to the other core that the host may or may not be running;
	// behind the block it runs as seldom as in a process that holds a real
	// graph. live_heap_mb is taken against a baseline that includes it.
	ballast := make([]byte, 128<<20)
	defer runtime.KeepAlive(ballast)

	e := &env{
		name: name, seed: seed, seconds: seconds, traced: traced, smoke: smoke,
		root: root, bin: bin, tmp: tmp,
		res: newResult(name, seed, seconds, traced),
	}
	if traced {
		e.tr = newTracer(1 << 16)
	}
	start := time.Now()
	err = run(e)
	e.bookSetups()
	stopAllChildren()
	e.res.WallS = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if traced {
		path := filepath.Join(root, "bench", "out", name+".spans.json")
		if werr := e.tr.write(path); werr != nil {
			return nil, fmt.Errorf("write spans: %w", werr)
		}
	}
	e.res.finish()
	return e.res, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.Name)
	}
	return names
}

// runAll is the one command that runs every workload untraced then
// traced, prints every metric by name with its unit, verifies the oracle
// and exits non-zero on a mismatch.
func runAll(root, bin string, seed int64, seconds float64, repeat int, smoke bool, out string) int {
	rec := &runRecord{Host: thisHost(root), Started: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds}
	code := 0
	for _, name := range workloadNames() {
		if _, ok := workloads[name]; !ok {
			continue
		}
		for _, traced := range []bool{false, true} {
			for r := 0; r < repeat; r++ {
				res, err := runOne(root, bin, name, seed+int64(r), seconds, traced, smoke)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					code = 1
					continue
				}
				res.print(os.Stdout)
				if !res.Correct {
					code = 1
				}
				rec.Runs = append(rec.Runs, res)
			}
		}
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out", "run-"+time.Now().UTC().Format("20060102-150405")+".json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("run record: %s\n", out)
	return code
}
