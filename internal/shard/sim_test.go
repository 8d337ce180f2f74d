package shard

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/shard/shardtest"
	"repro/internal/simtest"
)

// TestSimulator checks the Coordinator against the brute-force model of
// internal/simtest, one matrix cell per seed: one to three shards, in this
// process or behind HTTP, with every shard's autotune pass after each batch
// or none, merged and unmerged families, tuple and time windows, IOB and
// VNM_N overlays, and a shard whose apply fails. Distinct~ is compared against a
// never-sharded Session fed the same stream.
func TestSimulator(t *testing.T) { fleetSim.Run(t) }

var fleetSim = simtest.Config{
	Package:     "./internal/shard/",
	Unsupported: fleetUnsupported,
	Ops:         []simtest.Kind{simtest.Rebalance, simtest.Reoptimize, simtest.ShardFault},
	Open: func(t testing.TB, c simtest.Cell, _ int, g *graph.Graph) simtest.Target {
		return openFleet(t, c, g)
	},
	Reference: shardtest.Reference,
	Owner:     func(v graph.NodeID, shards int) int { return Owner(v, shards) },
	Nodes:     16, Steps: 40, Seeds: 72, ShortSeeds: 12,
}

// TestShardedMatchesOracle is the correctness spine of the scale-out layer:
// 2- and 3-shard fleets of both kinds of Shard, Sessions in this process and
// shard servers across HTTP, run the simulator's merged IOB cell, tuple
// windows on odd seeds and time windows on even ones.
func TestShardedMatchesOracle(t *testing.T) {
	for _, transport := range []string{"local", "http"} {
		for _, shards := range []int{2, 3} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/shards=%d/seed=%d", transport, shards, seed), func(t *testing.T) {
					t.Parallel()
					fleetSim.Seed(t, simtest.Cell{Shards: shards, HTTP: transport == "http", Merged: true,
						TimeWindow: seed%2 == 0, Algorithm: "iob"}, seed)
				})
			}
		}
	}
}

// fleetUnsupported is every cell a Coordinator cannot run, with the reason.
func fleetUnsupported(c simtest.Cell) string {
	switch {
	case c.Durable:
		return "shards are in-memory Sessions; a durable fleet restarts shards one by one, which needs divergence detection across restarts (ROADMAP item 8b)"
	case c.HTTP && !c.Merged:
		return "the HTTP register body carries no compile option (Iterations) that keeps two queries of one family apart"
	}
	return ""
}

// fleet is a Coordinator as the simulator drives it. ts-less events are
// stamped at the coordinator's stream time (a nil clock), and every batch
// closes time there.
type fleet struct {
	simtest.Target // subscriptions: a fleet offers none
	c              simtest.Cell
	co             *Coordinator
	cluster        *Cluster
	urls           []string
	fail           []atomic.Bool // fail shard i's next apply
	qs             map[int]*Query
}

func openFleet(t testing.TB, c simtest.Cell, g *graph.Graph) *fleet {
	f := &fleet{c: c, fail: make([]atomic.Bool, c.Shards), qs: map[int]*Query{}}
	members := make([]Shard, c.Shards)
	if c.HTTP {
		mid := func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/ingest" && f.fail[i].CompareAndSwap(true, false) {
					http.Error(w, "injected", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		}
		for i, srv := range shardtest.HTTPShards(t, c.Shards, g.Clone, eagr.Options{}, mid) {
			members[i] = NewHTTPShard(srv.URL)
			f.urls = append(f.urls, srv.URL)
		}
	} else {
		// Local shards stamp what the coordinator leaves unstamped (before
		// the fleet has time) as HTTP shard servers do: at their stream time.
		cluster, err := Open(g, Options{Shards: c.Shards, Ingest: eagr.IngestOptions{Clock: eagr.StreamClock()}})
		if err != nil {
			t.Fatal(err)
		}
		f.cluster = cluster
		for i, s := range cluster.local {
			members[i] = failing{s, &f.fail[i]}
		}
	}
	f.co = NewCoordinator(members, nil)
	return f
}

// failing is a local Shard whose next apply fails while fail is set.
type failing struct {
	Shard
	fail *atomic.Bool
}

var errInjectedApply = errors.New("injected apply failure")

func (s failing) Apply(events []eagr.Event) error {
	if s.fail.CompareAndSwap(true, false) {
		return errInjectedApply
	}
	return s.Shard.Apply(events)
}

func (f *fleet) Entry() (bool, bool) { return true, true }

// Apply applies one batch; with autotune on, every shard's autotune pass
// then runs, as its loop's tick would between two batches.
func (f *fleet) Apply(evs []eagr.Event, _ int64) ([]graph.NodeID, error) {
	_, err := f.co.Apply(evs)
	if f.c.Autotune && err == nil {
		err = f.Do(simtest.Op{Kind: simtest.Rebalance})
	}
	return nil, err
}

func (f *fleet) Register(slot int, sp simtest.Spec) error {
	q, err := f.co.Register(eagr.QuerySpec{Aggregate: sp.Aggregate, WindowTuples: sp.WindowTuples,
		WindowTime: sp.WindowTime, Hops: sp.Hops, Continuous: sp.Continuous},
		eagr.Options{Algorithm: f.c.Algorithm, Iterations: 5 + sp.Family})
	f.qs[slot] = q
	return err
}

func (f *fleet) Retire(slot int) error {
	q := f.qs[slot]
	delete(f.qs, slot)
	return q.Close()
}

// Read reads through the coordinator's merge. A topology-valued query also
// reads every local replica, which must hold the exact value alone.
func (f *fleet) Read(slot int, v graph.NodeID) (simtest.Result, error) {
	q := f.qs[slot]
	res, err := q.Read(v)
	var he *HTTPError
	if errors.Is(err, eagr.ErrUnknownNode) || errors.As(err, &he) && he.Code == http.StatusNotFound {
		return simtest.Result{}, simtest.ErrUnknownNode
	}
	for i := 0; err == nil && q.Topo() && f.cluster != nil && i < f.c.Shards; i++ {
		if r, rerr := q.ShardQuery(i).Read(v); rerr != nil || !r.Eq(res) {
			return simtest.Result(res), errors.Join(errors.New("replicas disagree"), rerr)
		}
	}
	return simtest.Result(res), err
}

func (f *fleet) Subscribe(int, []graph.NodeID) error { return simtest.ErrUnsupported }

func (f *fleet) Updates(int) []simtest.Update { return nil }

func (f *fleet) Do(op simtest.Op) error {
	switch op.Kind {
	case simtest.ShardFault:
		f.fail[op.Shard].Store(true)
	case simtest.Rebalance:
		var errs []error
		for _, u := range f.urls {
			resp, err := http.Post(u+"/rebalance", "application/json", nil)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = &HTTPError{Code: resp.StatusCode, msg: "rebalance"}
				}
			}
			errs = append(errs, err)
		}
		for i := 0; f.cluster != nil && i < f.c.Shards; i++ {
			_, err := f.cluster.Shard(i).Rebalance()
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	case simtest.Reoptimize:
		if f.cluster == nil {
			return simtest.ErrUnsupported
		}
		for _, q := range f.qs {
			for i := 0; !q.Topo() && i < f.c.Shards; i++ {
				if err := q.ShardQuery(i).Internal().Reoptimize(nil); err != nil {
					return err
				}
			}
		}
	default:
		return simtest.ErrUnsupported
	}
	return nil
}

func (f *fleet) Close() {
	if f.cluster != nil {
		f.cluster.Close()
	}
}
