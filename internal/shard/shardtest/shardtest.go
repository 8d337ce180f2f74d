// Package shardtest holds the plug-ins the fleet simulators of
// internal/shard and cmd/eagr-router share: shard servers over HTTP, and the
// in-memory Session that approximate aggregates are compared against.
package shardtest

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/simtest"
)

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

// Reference opens the in-memory Session a fleet simulator compares
// approximate aggregates against: simtest feeds it the stream the model
// stamped, with the closes the model chose.
func Reference(t testing.TB, g *graph.Graph) simtest.Target {
	s, err := eagr.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	return &reference{s: s, qs: map[int]*eagr.Query{}}
}

type reference struct {
	simtest.Target // the ops a reference is never asked for
	s              *eagr.Session
	qs             map[int]*eagr.Query
}

func (r *reference) Apply(evs []eagr.Event, closeAt int64) ([]graph.NodeID, error) {
	ids, err := r.s.ApplyBatchNodes(evs)
	if closeAt != graph.NoAdvance {
		err = errors.Join(err, r.s.ExpireAll(closeAt))
	}
	return ids, err
}

func (r *reference) Register(slot int, sp simtest.Spec) error {
	q, err := r.s.Register(eagr.QuerySpec{Aggregate: sp.Aggregate, WindowTuples: sp.WindowTuples,
		WindowTime: sp.WindowTime, Hops: sp.Hops, Continuous: sp.Continuous}, eagr.Options{Iterations: 5 + sp.Family})
	r.qs[slot] = q
	return err
}

func (r *reference) Retire(slot int) error { return r.qs[slot].Close() }

func (r *reference) Read(slot int, v graph.NodeID) (simtest.Result, error) {
	res, err := r.qs[slot].Read(v)
	return simtest.Result(res), err
}

func (r *reference) Close() {}
