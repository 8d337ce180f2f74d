package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	eagr "repro"
	"repro/internal/graph"
)

// sharded_http: the real binaries. One eagr-router in front of two
// eagr-serve shards over the same graph, on loopback ports; the driver is
// one client on one keep-alive connection to the router, in a closed loop:
// POST a 256-line NDJSON batch, wait for the acknowledgement, GET a few
// merged reads. NDJSON parse, router fan-out, the JSON hop and the
// wire-PAO merge do the work here; engine time is negligible.

type shardedSizes struct {
	nodes, degree int
	inputs, reads int // pre-generated iterations; routed reads after each batch
	sumWindow     int64
}

// Calibration (2-core shared sandbox, three server processes and the
// driver on two cores): the issue's two open-loop connections measured the
// host's scheduler — four processes woken by timers on two shared cores:
// read and ack medians spread 50-70 % between runs of one commit, and a
// slow half-minute tipped the fixed rates into a growing queue. One client
// in a closed loop keeps one request in flight, so at any moment one of
// the four processes is running; the medians of its request times repeat.
// A 256-line ingest through the router is 2-4 ms here, a routed read
// (two shard hops in turn, merge) about 1 ms.
var (
	shardedFull  = shardedSizes{2000, 10, 32, 4, 20000}
	shardedSmoke = shardedSizes{500, 6, 16, 2, 2000}
)

const numShards = 2

// fleet is a running router with its shards.
type fleet struct {
	router *child
	shards []*child
	base   string   // router URL
	direct []string // shard URLs
	ids    []int    // router ids of the registered queries, in spec order
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.router.kill()
	for _, s := range f.shards {
		s.kill()
	}
}

// specJSON is the POST /queries body of a spec.
func specJSON(spec eagr.QuerySpec) []byte {
	b, _ := json.Marshal(map[string]any{
		"aggregate": spec.Aggregate, "windowTuples": spec.WindowTuples,
		"windowTime": spec.WindowTime, "continuous": spec.Continuous,
	})
	return b
}

// startFleet launches two shards and the router, waits until each answers,
// and registers the queries through the router: the service's set-up.
func startFleet(e *env, sz shardedSizes, specs []eagr.QuerySpec, tag string) (*fleet, error) {
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	for i := 0; i < numShards; i++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("shard%d-%s", i, tag)
		c, err := startChild(name, filepath.Join(e.bin, "eagr-serve"), filepath.Join(e.tmp, name+".log"),
			serveArgs(port, sz.nodes, sz.degree, graphSeed, "-ingest-manual-expire")...)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, c)
		f.direct = append(f.direct, "http://127.0.0.1:"+strconv.Itoa(port))
	}
	for i, c := range f.shards {
		if err := waitReady(c, f.direct[i], "/healthz", 20*time.Second); err != nil {
			return nil, err
		}
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	f.base = "http://127.0.0.1:" + strconv.Itoa(port)
	f.router, err = startChild("router-"+tag, filepath.Join(e.bin, "eagr-router"), filepath.Join(e.tmp, "router-"+tag+".log"),
		"-listen", "127.0.0.1:"+strconv.Itoa(port), "-shards", f.direct[0]+","+f.direct[1])
	if err != nil {
		return nil, err
	}
	if err := waitReady(f.router, f.base, "/queries", 20*time.Second); err != nil {
		return nil, err
	}
	conn := newHTTPConn(f.base)
	defer conn.close()
	for _, spec := range specs {
		var out struct {
			ID int `json:"id"`
		}
		if err := conn.do(http.MethodPost, "/queries", specJSON(spec), &out); err != nil {
			return nil, err
		}
		f.ids = append(f.ids, out.ID)
	}
	ok = true
	return f, nil
}

// queryPath is the URL path of one query's read (or pao) at one node.
func queryPath(id int, what string, node graph.NodeID) string {
	return "/queries/" + strconv.Itoa(id) + "/" + what + "?node=" + strconv.Itoa(int(node))
}

// ndjson encodes a batch as /ingest lines.
func ndjson(buf *bytes.Buffer, batch []eagr.Event) []byte {
	buf.Reset()
	for _, ev := range batch {
		fmt.Fprintf(buf, "{\"node\":%d,\"value\":%d,\"ts\":%d}\n", ev.Node, ev.Value, ev.TS)
	}
	return buf.Bytes()
}

type ingestAck struct {
	Accepted    int    `json:"accepted"`
	Watermark   *int64 `json:"watermark"`
	Error       string `json:"error"`
	ApplyErrors string `json:"applyErrors"`
}

type readAnswer struct {
	Valid  bool    `json:"valid"`
	Scalar int64   `json:"scalar"`
	List   []int64 `json:"list"`
}

func (a readAnswer) result() eagr.Result {
	return eagr.Result{Valid: a.Valid, Scalar: a.Scalar, List: a.List}
}

// ingester owns the ingest connection and everything the oracle needs to
// know about what went through it.
type ingester struct {
	conn    *httpConn
	path    string
	buf     bytes.Buffer
	expired int64 // largest watermark the router broadcast
	sent    int64
	failed  int64
	err     error
}

func (in *ingester) post(batch []eagr.Event) {
	var ack ingestAck
	err := in.conn.do(http.MethodPost, in.path, ndjson(&in.buf, batch), &ack)
	in.sent += int64(len(batch))
	switch {
	case err != nil:
		in.failed += int64(len(batch))
		in.err = err
	case ack.Accepted != len(batch) || ack.Error != "" || ack.ApplyErrors != "":
		in.failed += int64(len(batch) - ack.Accepted)
		in.err = fmt.Errorf("ingest ack: accepted %d of %d, error %q %q", ack.Accepted, len(batch), ack.Error, ack.ApplyErrors)
	}
	if ack.Watermark != nil && *ack.Watermark > in.expired {
		in.expired = *ack.Watermark
	}
}

func runShardedHTTP(e *env) error {
	sz := shardedFull
	if e.smoke {
		sz = shardedSmoke
	}
	if err := requireBinaries(e.bin); err != nil {
		return err
	}
	specs := []eagr.QuerySpec{
		{Aggregate: "sum", WindowTime: sz.sumWindow},
		{Aggregate: "topk(10)", WindowTuples: 4},
	}
	g := socialGraph(sz.nodes, sz.degree) // the driver's copy, for the oracle
	model := newGraphModel(g)
	inputs := contentInputs(sz.nodes, sz.inputs, sz.reads, e.seed)
	hist := newHistory(sz.nodes, 4, int(sz.sumWindow))

	round := 0
	fl, _, err := setupRepeated(e, wallClock, func(int) (*fleet, error) {
		round++
		return startFleet(e, sz, specs, strconv.Itoa(round))
	}, func(f *fleet) { f.stop() })
	if err != nil {
		return err
	}
	defer fl.stop()
	kids := append([]*child{fl.router}, fl.shards...)
	in := &ingester{conn: newHTTPConn(fl.base), path: "/ingest"}
	defer in.conn.close()

	// Main loop: one client, one connection, closed loop. A 256-line batch
	// posted through the router and acknowledged, then a few merged reads
	// through the router, each its own sample.
	var seq, it, reads, readFailures int64
	var ans readAnswer
	nextInput := func() (int, *iterInput) {
		pos := int(it % int64(len(inputs)))
		it++
		stamp(inputs[pos].writes, &seq, hist)
		return pos, &inputs[pos]
	}
	st := mainLoop(e, int64(batchSize+sz.reads), len(inputs), sz.reads, kids, func(st *loopStats) {
		pos, inp := nextInput()
		st.begin(pos)
		sp := e.tr.begin("http.POST /ingest", -1, it)
		t0 := time.Now()
		in.post(inp.writes)
		st.acked(time.Since(t0))
		e.tr.end(sp)
		for i, ego := range inp.reads {
			sp := e.tr.begin("http.GET read", -1, it)
			t0 := time.Now()
			err := in.conn.do(http.MethodGet, queryPath(fl.ids[i&1], "read", ego), nil, &ans)
			st.reads(time.Since(t0), 1)
			e.tr.end(sp)
			reads++
			if err != nil {
				readFailures++
				e.res.failf("router read: %v", err)
			}
		}
		st.end()
	})
	e.res.ops(reads, readFailures)
	e.res.set("router.read_p99_us", st.readP99us())

	// Memory of the three server processes.
	var rss float64
	for _, c := range kids {
		rss += c.rssMB()
	}
	e.res.set("live_heap_mb", rss)
	e.res.set("router.rss_mb", fl.router.rssMB())
	e.res.set("server.rss_mb", fl.shards[0].rssMB())

	// Oracle: what the router answers for 200 egos per query.
	var c checker
	egos := sampleEgos(sz.nodes, oracleEgos, e.seed+7)
	verifyContent(&c, specs, func(qi int, ego graph.NodeID) (eagr.Result, error) {
		var ans readAnswer
		err := in.conn.do(http.MethodGet, queryPath(fl.ids[qi], "read", ego), nil, &ans)
		return ans.result(), err
	}, egos, model, hist, in.expired)
	c.book(e.res, "oracle")
	if e.traced {
		err = shardedLayers(e, fl, sz, specs, inputs, in, func() []eagr.Event {
			_, inp := nextInput()
			return inp.writes
		})
	}
	e.res.ops(in.sent, in.failed)
	if in.err != nil {
		e.res.Failures = append(e.res.Failures, "ingest: "+in.err.Error())
	}
	return err
}
