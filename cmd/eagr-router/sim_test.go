package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
	"repro/internal/simtest"
)

// TestSimulator checks the router's handlers against the brute-force model
// of internal/simtest, one matrix cell per seed: NDJSON in, JSON out, one to
// three HTTP shards behind, with every shard's autotune pass after each
// batch or none, tuple and time windows, IOB and VNM_N overlays, and a
// shard whose ingest fails. Distinct~ is compared against a never-sharded
// Session.
func TestSimulator(t *testing.T) {
	routerSim.Run(t)
}

// TestRouterMatchesOracle runs the simulator's merged IOB cell through the
// router's own handlers over 2 and 3 HTTP shards, tuple windows on odd
// seeds and time windows on even ones.
func TestRouterMatchesOracle(t *testing.T) {
	for _, shards := range []int{2, 3} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				routerSim.Seed(t, simtest.Cell{Shards: shards, HTTP: true, Merged: true,
					TimeWindow: seed%2 == 0, Algorithm: "iob"}, seed)
			})
		}
	}
}

var routerSim = simtest.Config{
	Package: "./cmd/eagr-router/",
	Unsupported: func(c simtest.Cell) string {
		switch {
		case c.Durable:
			return "the router has no durability; its shards' restarts need divergence detection (ROADMAP item 8b)"
		case !c.HTTP:
			return "the router reaches its shards over HTTP only"
		case !c.Merged:
			return "the register body carries no compile option (Iterations) that keeps two queries of one family apart"
		}
		return ""
	},
	Ops: []simtest.Kind{simtest.Rebalance, simtest.ShardFault},
	Open: func(t testing.TB, c simtest.Cell, _ int, g *graph.Graph) simtest.Target {
		rt := &routerTarget{c: c, fail: make([]atomic.Bool, c.Shards), ids: map[int]int{}}
		mid := func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/ingest" && rt.fail[i].CompareAndSwap(true, false) {
					http.Error(w, "injected", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		}
		for _, s := range shardtest.HTTPShards(t, c.Shards, g.Clone, eagr.Options{}, mid) {
			rt.shards = append(rt.shards, s.URL)
		}
		srv := httptest.NewServer(newRouter(rt.shards))
		t.Cleanup(srv.Close)
		rt.url = srv.URL
		return rt
	},
	Reference: shardtest.Reference,
	Owner:     func(v graph.NodeID, shards int) int { return shard.Owner(v, shards) },
	Nodes:     16, Steps: 40, Seeds: 24, ShortSeeds: 6,
}

// routerTarget is a router driven over its HTTP surface.
type routerTarget struct {
	simtest.Target // subscriptions: the router offers none
	c              simtest.Cell
	url            string
	shards         []string
	fail           []atomic.Bool // fail shard i's next ingest
	ids            map[int]int   // slot → router query id
}

func (rt *routerTarget) Entry() (bool, bool) { return true, true }

// call sends one request and decodes a 2xx answer into out.
func (rt *routerTarget) call(method, url string, body []byte, out any) error {
	req, _ := http.NewRequest(method, url, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return simtest.ErrUnknownNode
	}
	if resp.StatusCode/100 != 2 {
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (rt *routerTarget) Apply(evs []eagr.Event, _ int64) ([]graph.NodeID, error) {
	var body []byte
	for _, ev := range evs {
		body = server.AppendIngestLine(body, ev)
	}
	var ack server.IngestAck
	if err := rt.call(http.MethodPost, rt.url+"/ingest", body, &ack); err != nil {
		return nil, err
	}
	if ack.Error != "" || ack.Accepted != len(evs) {
		return nil, fmt.Errorf("ingest: accepted %d of %d, error %q", ack.Accepted, len(evs), ack.Error)
	}
	if rt.c.Autotune { // every shard's autotune pass, as its loop's tick would run between two batches
		return nil, rt.Do(simtest.Op{Kind: simtest.Rebalance})
	}
	return nil, nil
}

func (rt *routerTarget) Register(slot int, sp simtest.Spec) error {
	body, _ := json.Marshal(server.QuerySpecReq{Aggregate: sp.Aggregate, WindowTuples: sp.WindowTuples,
		WindowTime: sp.WindowTime, Hops: sp.Hops, Continuous: sp.Continuous, Algorithm: rt.c.Algorithm})
	var q routerQuery
	err := rt.call(http.MethodPost, rt.url+"/queries", body, &q)
	rt.ids[slot] = q.ID
	return err
}

func (rt *routerTarget) Retire(slot int) error {
	return rt.call(http.MethodDelete, fmt.Sprintf("%s/queries/%d", rt.url, rt.ids[slot]), nil, nil)
}

func (rt *routerTarget) Read(slot int, v graph.NodeID) (simtest.Result, error) {
	var r server.ReadResp
	err := rt.call(http.MethodGet, fmt.Sprintf("%s/queries/%d/read?node=%d", rt.url, rt.ids[slot], v), nil, &r)
	return simtest.Result(r.Result()), err
}

func (rt *routerTarget) Subscribe(int, []graph.NodeID) error { return simtest.ErrUnsupported }

func (rt *routerTarget) Updates(int) []simtest.Update { return nil }

// Do runs the autotune pass on every shard, as each shard's loop does, or
// arms a shard's ingest failure.
func (rt *routerTarget) Do(op simtest.Op) error {
	switch op.Kind {
	case simtest.ShardFault:
		rt.fail[op.Shard].Store(true)
		return nil
	case simtest.Rebalance:
		var errs []error
		for _, u := range rt.shards {
			errs = append(errs, rt.call(http.MethodPost, u+"/rebalance", nil, nil))
		}
		return errors.Join(errs...)
	}
	return simtest.ErrUnsupported
}

func (rt *routerTarget) Close() {}
