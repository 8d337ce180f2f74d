// Command eagr-serve runs a multi-query EAGr session as an HTTP service
// over a synthetic or edge-list graph. See internal/server for the JSON
// API: clients register standing queries at runtime (POST /queries), read
// them (GET /queries/{id}/read), and stream continuous results over SSE
// (GET /queries/{id}/watch). An initial query is registered from the flags
// as query 1, so a fresh server answers reads before any POST /queries.
//
// Usage:
//
//	eagr-serve -listen :8080 -graph social -nodes 10000 -aggregate "topk(3)"
//	eagr-serve -edgelist graph.el -aggregate sum -window 10
//	eagr-serve -data-dir /var/lib/eagr -fsync per-batch
//
// With -data-dir the session is durable: ingested events are logged to a
// write-ahead log under the directory, state is checkpointed periodically
// (-checkpoint-interval) and on shutdown, and a restart with the same
// -data-dir recovers the graph, the registered queries, and every window
// before serving. On a recovered directory the flag-derived initial query
// is skipped — the recovered query set wins. -fsync picks the durability/
// throughput trade-off (per-batch | interval | off; see -fsync-interval).
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests (including open /watch streams) before exiting; with -data-dir
// it then writes a final checkpoint covering the whole log, so the next
// start replays nothing.
//
// With -autotune the session's autotune loop starts once the session is
// open (after any recovery): it runs the POST /rebalance pass every 2s.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "listen address")
		kind     = flag.String("graph", "social", "graph family: social | web")
		nodes    = flag.Int("nodes", 10000, "synthetic graph size")
		deg      = flag.Int("degree", 10, "average degree")
		edgelist = flag.String("edgelist", "", "load graph from an edge-list file instead")
		aggSpec  = flag.String("aggregate", "sum", "initial query aggregate: sum|count|avg|max|min|distinct|topk(k)|stddev|topk~(k)|distinct~")
		window   = flag.Int("window", 1, "initial query tuple window size per writer")
		cont     = flag.Bool("continuous", false, "compile the initial query with continuous (all-push) semantics")
		alg      = flag.String("alg", "", "overlay algorithm (empty = auto)")
		seed     = flag.Int64("seed", 1, "random seed for synthetic graphs")
		grace    = flag.Duration("grace", 10*time.Second, "graceful shutdown timeout")
		tsJump   = flag.Int64("ingest-max-ts-jump", 0, "reject /ingest events whose timestamp runs further than this ahead of the stream (0 = unbounded; guards the watermark against corrupt far-future timestamps)")
		manualEx = flag.Bool("ingest-manual-expire", false, "do not expire time-based windows on the local ingest watermark; only POST /expire advances them (for shard servers behind eagr-router, which closes time on every shard at its stream time)")

		autotune = flag.Bool("autotune", false, "run the autotune loop: the POST /rebalance pass every 2s, applying the frontier flips the observed per-reader push/pull counts justify (see /stats \"autotune\" and \"adaptivity\")")

		dataDir    = flag.String("data-dir", "", "durability directory: WAL + checkpoints (empty = in-memory only)")
		fsyncMode  = flag.String("fsync", "per-batch", "WAL fsync policy with -data-dir: per-batch | interval | off")
		fsyncEvery = flag.Duration("fsync-interval", time.Second, "fsync cadence under -fsync interval")
		ckptEvery  = flag.Duration("checkpoint-interval", time.Minute, "background checkpoint cadence with -data-dir (0 = only at shutdown)")
	)
	flag.Parse()

	var g *graph.Graph
	switch {
	case *edgelist != "":
		var err error
		g, err = loadEdgeList(*edgelist)
		if err != nil {
			log.Fatal(err)
		}
	case *kind == "social":
		g = workload.SocialGraph(*nodes, *deg, *seed)
	case *kind == "web":
		g = workload.WebGraph(*nodes, 4**deg, *deg, *seed)
	default:
		log.Fatalf("unknown graph family %q", *kind)
	}

	opts := eagr.Options{Algorithm: *alg, Iterations: 6}
	var sess *eagr.Session
	recoveredQueries := 0
	if *dataDir != "" {
		policy, err := eagr.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		var rec *eagr.Recovery
		// The synthetic/edge-list graph only seeds a FRESH directory; a
		// recovered one restores its own checkpointed graph.
		sess, rec, err = eagr.OpenDurable(g, eagr.DurabilityOptions{
			Dir:                *dataDir,
			Fsync:              policy,
			FsyncInterval:      *fsyncEvery,
			CheckpointInterval: *ckptEvery,
		}, opts)
		if err != nil {
			log.Fatal(err)
		}
		recoveredQueries = rec.RecoveredQueries
		log.Printf("recovered %s: %d queries, checkpoint lsn %d, %d batches / %d events replayed (truncated tail: %v) in %v",
			*dataDir, rec.RecoveredQueries, rec.CheckpointLSN, rec.ReplayedBatches, rec.ReplayedEvents, rec.TruncatedTail, rec.Duration)
	} else {
		var err error
		sess, err = eagr.Open(g, opts)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *autotune {
		sess.EnableAutotune()
	}
	g = sess.Graph()
	log.Printf("graph: %d nodes, %d edges", g.NumNodes(), g.NumEdges())

	if recoveredQueries > 0 {
		// The recovered query set wins; the flag-derived initial query is
		// only a fresh-start convenience.
		log.Printf("serving %d recovered queries; skipping initial registration", recoveredQueries)
	} else {
		q, err := sess.Register(eagr.QuerySpec{
			Aggregate:    *aggSpec,
			WindowTuples: *window,
			Continuous:   *cont,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := q.Stats()
		log.Printf("registered query %d: aggregate=%s algorithm=%s sharing-index=%.1f%% partials=%d maintainable=%v",
			q.ID(), *aggSpec, st.Algorithm, st.SharingIndex*100, st.Partials, st.Maintainable)
	}

	serverOpts := []server.Option{server.WithMaxTimestampJump(*tsJump)}
	if *manualEx {
		serverOpts = append(serverOpts, server.WithManualExpiry())
	}
	api := server.New(sess, serverOpts...)
	srv := server.NewHTTPServer(*listen, api)
	// End open /watch SSE streams when Shutdown begins, so draining does
	// not wait out the grace period on long-lived watchers. The session
	// Ingestor closes only AFTER Shutdown returns: in-flight /ingest
	// requests must drain, not get ErrIngestorClosed mid-stream.
	srv.RegisterOnShutdown(api.CloseWatchers)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		log.Printf("signal received; draining for up to %v", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		api.Close()
		// Stop the autotune loop before the final checkpoint so no
		// frontier-flip install races the durability close.
		sess.StopAutotune()
		if *dataDir != "" {
			// The final checkpoint covers the whole log: the next start
			// replays nothing.
			if cerr := sess.CloseDurability(); cerr != nil {
				log.Printf("close durability: %v", cerr)
			} else {
				log.Printf("checkpointed the whole log")
			}
		}
		done <- err
	}()

	log.Printf("serving on %s", *listen)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("shut down cleanly")
}

// loadEdgeList reads "src dst" pairs (one per line, '#' comments), sizing
// the graph to the largest id seen.
func loadEdgeList(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type edge struct{ u, v int }
	var edges []edge
	maxID := -1
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var u, v int
		if _, err := fmt.Sscan(text, &u, &v); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("%s:%d: negative node id", path, line)
		}
		edges = append(edges, edge{u, v})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := graph.NewWithNodes(maxID + 1)
	for _, e := range edges {
		if err := g.AddEdge(graph.NodeID(e.u), graph.NodeID(e.v)); err != nil {
			// Tolerate duplicate edges in input files.
			continue
		}
	}
	return g, nil
}
