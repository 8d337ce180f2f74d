// Package shardtest is the sharding oracle shared by internal/shard's tests
// (the Coordinator over in-process and over HTTP shards) and
// cmd/eagr-router's (the router over httptest shards and over the real
// binaries): one random stream, one never-sharded Session that saw it too,
// every query read at every node on both sides.
package shardtest

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
)

// Specs is every query family the oracle drives: each built-in aggregate
// except topk~ (its bounded candidate list is admission-order dependent, so
// sharded answers legitimately differ — see package shard), tuple and time
// windows, a 2-hop member that merges into the first spec's overlay family,
// and the topology-valued aggregates, which structural replication must
// keep exact.
var Specs = []eagr.QuerySpec{
	{Aggregate: "sum", WindowTuples: 3},
	{Aggregate: "sum", WindowTuples: 3, Hops: 2},
	{Aggregate: "count", WindowTime: 40},
	{Aggregate: "avg", WindowTuples: 2},
	{Aggregate: "max", WindowTuples: 4},
	{Aggregate: "min", WindowTime: 60},
	{Aggregate: "stddev", WindowTuples: 4},
	{Aggregate: "topk(3)", WindowTuples: 5},
	{Aggregate: "distinct", WindowTime: 50},
	{Aggregate: "distinct~", WindowTime: 30},
	{Aggregate: "density"},
	{Aggregate: "triangles"},
	{Aggregate: "wedges"},
	{Aggregate: "ego-betweenness"},
	{Aggregate: "ego-betweenness", WindowTime: 45},
}

// System is a sharded deployment as its client sees it.
type System interface {
	// Register returns the registered query's read function.
	Register(spec eagr.QuerySpec) (read func(eagr.NodeID) (eagr.Result, error), err error)
	// Apply applies one batch and returns the fleet watermark, which Run
	// requires to be the stream's own time.
	Apply(events []eagr.Event) (watermark *int64, err error)
}

// Churn generates the next batch of a random mixed stream: mostly content,
// with edge and node churn. alive and ts carry the generator's state from
// batch to batch; node-adds allocate ids only the applying side learns, so
// the caller appends them to alive.
func Churn(rng *rand.Rand, alive *[]eagr.NodeID, ts *int64) []eagr.Event {
	events := make([]eagr.Event, 30+rng.Intn(41))
	for i := range events {
		*ts += int64(rng.Intn(3))
		pick := func() eagr.NodeID { return (*alive)[rng.Intn(len(*alive))] }
		switch p := rng.Float64(); {
		case p < 0.65 || len(*alive) < 8:
			events[i] = eagr.NewWrite(pick(), int64(rng.Intn(15)-4), *ts)
		case p < 0.75: // may duplicate an existing edge; both sides skip it
			events[i] = eagr.NewEdgeAdd(pick(), pick(), *ts)
		case p < 0.85: // may miss; both sides skip it
			events[i] = eagr.NewEdgeRemove(pick(), pick(), *ts)
		case p < 0.93:
			events[i] = eagr.NewNodeAdd(*ts)
		default:
			// Drop the victim from the alive view right away so no later
			// event of this run addresses it.
			victim := rng.Intn(len(*alive))
			events[i] = eagr.NewNodeRemove((*alive)[victim], *ts)
			*alive = slices.Delete(*alive, victim, victim+1)
		}
	}
	return events
}

// Run feeds sys and a never-sharded Session over g the same batches. After
// every batch the fleet watermark must be the generator's stream time, to
// which the oracle then expires. Every sixth batch and after the last, every
// query must answer alike at every node id ever allocated — values, and
// which reads fail.
// check, if not nil, runs at the same points with the oracle's state.
func Run(t *testing.T, g *graph.Graph, sys System, specs []eagr.QuerySpec, seed int64, batches int, check func(oracle *eagr.Session, oqs []*eagr.Query)) {
	t.Helper()
	oracle, err := eagr.Open(g, eagr.Options{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	var oqs []*eagr.Query
	var reads []func(eagr.NodeID) (eagr.Result, error)
	for _, spec := range specs {
		oq, err := oracle.Register(spec)
		if err != nil {
			t.Fatalf("oracle %+v: %v", spec, err)
		}
		read, err := sys.Register(spec)
		if err != nil {
			t.Fatalf("sharded %+v: %v", spec, err)
		}
		oqs, reads = append(oqs, oq), append(reads, read)
	}
	rng := rand.New(rand.NewSource(seed * 1013))
	alive := oracle.Graph().Nodes()
	ts := int64(1)
	for batch := 0; batch < batches; batch++ {
		events := Churn(rng, &alive, &ts)
		wm, err := sys.Apply(events)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		// The oracle's error joins the events it skipped (duplicate edges,
		// missed removes); the shards skipped the same ones.
		added, _ := oracle.ApplyBatchNodes(events)
		alive = append(alive, added...)
		// The oracle keeps its own clock: a window is defined over the one
		// stream, so the fleet must close time exactly where it does.
		if wm == nil {
			t.Fatalf("batch %d: no fleet watermark, want stream time %d", batch, ts)
		} else if *wm != ts {
			t.Fatalf("batch %d: fleet watermark %d, want stream time %d", batch, *wm, ts)
		}
		if err := oracle.ExpireAll(ts); err != nil {
			t.Fatal(err)
		}
		if batch%6 != 5 && batch != batches-1 {
			continue
		}
		for qi, oq := range oqs {
			for v := 0; v < oracle.Graph().MaxID(); v++ {
				want, werr := oq.Read(eagr.NodeID(v))
				got, gerr := reads[qi](eagr.NodeID(v))
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("batch %d, query %+v, node %d: oracle err %v, sharded err %v", batch, oq.Spec(), v, werr, gerr)
				}
				if werr == nil && !want.Eq(got) {
					t.Fatalf("batch %d, query %+v, node %d: oracle %+v, sharded %+v", batch, oq.Spec(), v, want, got)
				}
			}
		}
		if check != nil {
			check(oracle, oqs)
		}
	}
}

// HTTPShards serves n shard servers, each over its own g() and expiring
// only when told to, and returns them; index i is shard i. mid, if not nil,
// wraps shard i's handler: the hook fault-injection tests use.
func HTTPShards(t testing.TB, n int, g func() *graph.Graph, opts eagr.Options, mid func(i int, h http.Handler) http.Handler) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, n)
	for i := range out {
		sess, err := eagr.Open(g(), opts)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(sess, server.WithManualExpiry())
		var h http.Handler = srv
		if mid != nil {
			h = mid(i, srv)
		}
		out[i] = httptest.NewServer(h)
		t.Cleanup(func() { out[i].Close(); srv.Close() })
	}
	return out
}
