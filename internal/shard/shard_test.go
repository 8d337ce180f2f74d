package shard

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/shard/shardtest"
	"repro/internal/workload"
)

// TestOwnerIsStableAndBalanced pins down the partitioner contract: pure,
// total over shard counts, and roughly balanced on a contiguous id range.
func TestOwnerIsStableAndBalanced(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		counts := make([]int, shards)
		for v := 0; v < 10000; v++ {
			s := Owner(graph.NodeID(v), shards)
			if s != Owner(graph.NodeID(v), shards) {
				t.Fatalf("Owner(%d, %d) not stable", v, shards)
			}
			if s < 0 || s >= shards {
				t.Fatalf("Owner(%d, %d) = %d out of range", v, shards, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			if shards > 1 && (c < 10000/shards/2 || c > 10000*2/shards) {
				t.Fatalf("shards=%d: shard %d owns %d of 10000 nodes", shards, s, c)
			}
		}
	}
}

// coSystem is a Coordinator as the oracle harness drives it; Apply is the
// Coordinator's own.
type coSystem struct {
	*Coordinator
	qs []*Query
}

func (s *coSystem) Register(spec eagr.QuerySpec) (func(eagr.NodeID) (eagr.Result, error), error) {
	q, err := s.Coordinator.Register(spec)
	if err != nil {
		return nil, err
	}
	s.qs = append(s.qs, q)
	return q.Read, nil
}

// TestShardedMatchesOracle is the correctness spine of the scale-out layer:
// 2- and 3-shard fleets fed random mixed batches (content, edge churn, node
// churn, watermark-driven expiry) must answer every query at every node
// exactly like a never-sharded single Session that saw the same stream. One
// harness, one Coordinator, both kinds of Shard: Sessions in this process
// and shard servers across HTTP.
func TestShardedMatchesOracle(t *testing.T) {
	for _, transport := range []string{"local", "http"} {
		for _, shards := range []int{2, 3} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/shards=%d/seed=%d", transport, shards, seed), func(t *testing.T) {
					t.Parallel()
					runShardedOracle(t, transport, shards, seed)
				})
			}
		}
	}
}

func runShardedOracle(t *testing.T, transport string, shards int, seed int64) {
	g := func() *graph.Graph { return workload.SocialGraph(48, 4, seed) }
	opts := eagr.Options{Iterations: 6}
	if transport == "http" {
		members := make([]Shard, shards)
		for i, srv := range shardtest.HTTPShards(t, shards, g, opts, nil) {
			members[i] = NewHTTPShard(srv.URL)
		}
		shardtest.Run(t, g(), &coSystem{Coordinator: NewCoordinator(members, nil)}, shardtest.Specs, seed, 24, nil)
		return
	}
	cluster, err := Open(g(), Options{Shards: shards, Session: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sys := &coSystem{Coordinator: cluster.Coordinator}
	var oracle *eagr.Session
	shardtest.Run(t, g(), sys, shardtest.Specs, seed, 24, func(o *eagr.Session, oqs []*eagr.Query) {
		oracle = o
		// Topology-valued: every shard individually must hold the exact
		// value, since structure (the only input) is fully replicated.
		for qi, cq := range sys.qs {
			for v := 0; cq.Topo() && v < o.Graph().MaxID(); v++ {
				want, werr := oqs[qi].Read(eagr.NodeID(v))
				for si := range shards {
					got, gerr := cq.ShardQuery(si).Read(eagr.NodeID(v))
					if (werr != nil) != (gerr != nil) || werr == nil && !want.Eq(got) {
						t.Fatalf("query %+v, node %d, shard %d: oracle %+v (%v), shard %+v (%v)",
							oqs[qi].Spec(), v, si, want, werr, got, gerr)
					}
				}
			}
		}
	})
	for i := range shards {
		assertSameGraph(t, oracle.Graph(), cluster.Shard(i).Graph(), i)
	}
}

// assertSameGraph checks full structural equality — the replicas (and the
// oracle) must agree on alive ids and adjacency, or the free-list node-id
// determinism the design depends on has broken.
func assertSameGraph(t *testing.T, want, got *graph.Graph, shard int) {
	t.Helper()
	if want.MaxID() != got.MaxID() || want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("shard %d: graph shape (%d,%d,%d), oracle (%d,%d,%d)", shard,
			got.MaxID(), got.NumNodes(), got.NumEdges(),
			want.MaxID(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < want.MaxID(); v++ {
		id := graph.NodeID(v)
		if want.Alive(id) != got.Alive(id) {
			t.Fatalf("shard %d: node %d alive=%v, oracle %v", shard, v, got.Alive(id), want.Alive(id))
		}
		if !want.Alive(id) {
			continue
		}
		wo := slices.Clone(want.Out(id))
		go_ := slices.Clone(got.Out(id))
		slices.Sort(wo)
		slices.Sort(go_)
		if !slices.Equal(wo, go_) {
			t.Fatalf("shard %d: node %d out-edges %v, oracle %v", shard, v, go_, wo)
		}
	}
}

// ownedBy returns a node of a 32-node graph that each of n shards owns.
func ownedBy(n int) []eagr.NodeID {
	owned := make([]eagr.NodeID, n)
	for v := 31; v >= 0; v-- {
		owned[Owner(graph.NodeID(v), n)] = graph.NodeID(v)
	}
	return owned
}

// TestClusterWatermarkIsMin pins the coordinator time contract: the
// cluster watermark is the minimum over shards that have applied events,
// and absent until at least one shard has.
func TestClusterWatermarkIsMin(t *testing.T) {
	cluster, err := Open(workload.SocialGraph(32, 3, 1), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if wm, err := cluster.Apply(nil); err != nil || wm != nil {
		t.Fatalf("watermark before any event applied = (%v, %v)", wm, err)
	}
	// One node owned by each shard, so both watermarks advance, to
	// different maxima.
	owned := ownedBy(2)
	wm, err := cluster.Apply([]eagr.Event{eagr.NewWrite(owned[0], 1, 100)})
	if err != nil || wm == nil || *wm != 100 {
		t.Fatalf("one-shard watermark = (%v, %v), want 100", wm, err)
	}
	wm, err = cluster.Apply([]eagr.Event{eagr.NewWrite(owned[1], 1, 40)})
	if err != nil || wm == nil || *wm != 40 {
		t.Fatalf("two-shard watermark = (%v, %v), want min 40", wm, err)
	}
}

// TestClusterRoutesContentToOwner checks the partitioner is actually used:
// a content write lands only on its owner's shard.
func TestClusterRoutesContentToOwner(t *testing.T) {
	cluster, err := Open(workload.SocialGraph(32, 3, 1), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	v := eagr.NodeID(5)
	if err := cluster.SendBatch([]eagr.Event{eagr.NewWrite(v, 7, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, st := range cluster.Stats() {
		want := int64(0)
		if i == Owner(v, 3) {
			want = 1
		}
		if st.Applied != want {
			t.Fatalf("shard %d applied %d events, want %d", i, st.Applied, want)
		}
	}
}

var errInjected = errors.New("injected shard failure")

// faulty is a Shard that fails the operations it is told to.
type faulty struct {
	Shard
	register, apply, mutate, retire bool
}

func (f *faulty) Apply(events []eagr.Event) (*int64, error) {
	if f.apply {
		return nil, errInjected
	}
	return f.Shard.Apply(events)
}

func (f *faulty) Mutate(ev eagr.Event) (graph.NodeID, error) {
	if f.mutate {
		return 0, errInjected
	}
	return f.Shard.Mutate(ev)
}

func (f *faulty) Register(spec eagr.QuerySpec, opts ...eagr.Options) (Member, error) {
	if f.register {
		return nil, errInjected
	}
	m, err := f.Shard.Register(spec, opts...)
	return faultyMember{m, f}, err
}

type faultyMember struct {
	Member
	f *faulty
}

func (m faultyMember) Close() error {
	if m.f.retire {
		return errInjected
	}
	return m.Member.Close()
}

// faultyFleet is a 3-shard coordinator, stamping with stream time, whose
// shard 1 is faulty.
func faultyFleet(t *testing.T) (*Coordinator, *faulty, *Cluster) {
	t.Helper()
	cluster, err := Open(workload.SocialGraph(32, 3, 1), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	f := &faulty{Shard: cluster.local[1]}
	return NewCoordinator([]Shard{cluster.local[0], f, cluster.local[2]}, nil), f, cluster
}

// TestRetireAttemptsEveryShard: a retire that fails on shard 1 of 3 still
// forgets the query, retires it on shards 0 and 2, and names shard 1.
func TestRetireAttemptsEveryShard(t *testing.T) {
	co, f, cluster := faultyFleet(t)
	q, err := co.Register(eagr.QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	f.retire = true
	err = q.Close()
	if !errors.Is(err, errInjected) || err.Error() != "shard 1: "+errInjected.Error() {
		t.Fatalf("Close = %v, want shard 1's failure alone", err)
	}
	if co.Query(q.ID()) != nil || len(co.Queries()) != 0 {
		t.Fatal("query still listed after a failed retire")
	}
	for i, want := range []int{0, 1, 0} {
		if got := len(cluster.Shard(i).Queries()); got != want {
			t.Fatalf("shard %d holds %d queries after retire, want %d", i, got, want)
		}
	}
}

// TestRegisterIsAllOrNone: a registration shard 1 refuses leaves no copy
// behind on shard 0, which had already accepted it.
func TestRegisterIsAllOrNone(t *testing.T) {
	co, f, cluster := faultyFleet(t)
	f.register = true
	if _, err := co.Register(eagr.QuerySpec{Aggregate: "sum"}); !errors.Is(err, errInjected) {
		t.Fatalf("Register = %v, want shard 1's failure", err)
	}
	for i := range 3 {
		if got := len(cluster.Shard(i).Queries()); got != 0 {
			t.Fatalf("shard %d holds %d queries after a refused register", i, got)
		}
	}
	if len(co.Queries()) != 0 {
		t.Fatal("refused query listed")
	}
}

// TestDivergedFleetFailsReads: a structural fan-out that applies on some
// shards and fails on another leaves replicas that disagree; from then on
// reads fail with ErrDiverged instead of merging them. A fan-out that fails
// everywhere, or carries only content, diverges nothing.
func TestDivergedFleetFailsReads(t *testing.T) {
	for _, via := range []string{"apply", "mutate"} {
		t.Run(via, func(t *testing.T) {
			co, f, _ := faultyFleet(t)
			q, err := co.Register(eagr.QuerySpec{Aggregate: "sum"})
			if err != nil {
				t.Fatal(err)
			}
			owned := ownedBy(3)
			f.apply, f.mutate = true, true
			if _, err := co.Apply([]eagr.Event{eagr.NewWrite(owned[1], 1, 5)}); !errors.Is(err, errInjected) {
				t.Fatalf("content apply on the failing shard = %v", err)
			}
			if d := co.Diverged(); d != nil {
				t.Fatalf("content-only failure recorded a divergence: %v", d)
			}
			if _, err := q.Read(owned[0]); err != nil {
				t.Fatalf("read before divergence: %v", err)
			}
			if via == "apply" {
				_, err = co.Apply([]eagr.Event{eagr.NewWrite(owned[0], 1, 6), eagr.NewNodeAdd(6)})
			} else {
				_, err = co.Mutate(eagr.NewNodeAdd(0))
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("structural %s with shard 1 failing = %v", via, err)
			}
			d := co.Diverged()
			if d == nil || d.Shard != 1 || !errors.Is(d.Err, errInjected) {
				t.Fatalf("Diverged() = %+v, want shard 1's injected failure", d)
			}
			if _, err := q.Read(owned[0]); !errors.Is(err, ErrDiverged) {
				t.Fatalf("read on a diverged fleet = %v, want ErrDiverged", err)
			}
		})
	}
}

// TestStreamTimeIgnoresFailedApply: stream time is what timestamp-less
// events are stamped with, so a far-future timestamp in an Apply a shard
// refused must not move it.
func TestStreamTimeIgnoresFailedApply(t *testing.T) {
	co, f, cluster := faultyFleet(t)
	q, err := co.Register(eagr.QuerySpec{Aggregate: "sum", WindowTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A writer shard 0 owns, and a reader whose ego network holds it.
	g := cluster.Shard(0).Graph()
	var writer, reader eagr.NodeID
	for _, v := range g.Nodes() {
		if Owner(v, 3) == 0 && len(g.Out(v)) > 0 {
			writer, reader = v, g.Out(v)[0]
		}
	}
	if _, err := co.Apply([]eagr.Event{eagr.NewWrite(writer, 1, 100)}); err != nil {
		t.Fatal(err)
	}
	f.apply = true
	if _, err := co.Apply([]eagr.Event{eagr.NewWrite(ownedBy(3)[1], 1, 9e18)}); !errors.Is(err, errInjected) {
		t.Fatalf("apply on the failing shard = %v", err)
	}
	if got := co.StreamTime(); got != 100 {
		t.Fatalf("stream time after a refused apply = %d, want 100", got)
	}
	f.apply = false
	wm, err := co.Apply([]eagr.Event{{Kind: graph.ContentWrite, Node: writer, Value: 7}})
	if err != nil || wm == nil || *wm != 100 {
		t.Fatalf("ts-less write: watermark (%v, %v), want 100: it was stamped into the future", wm, err)
	}
	if res, err := q.Read(reader); err != nil || !res.Valid || res.Scalar != 8 {
		t.Fatalf("windowed read = (%+v, %v), want both writes in the window (8)", res, err)
	}
}

// TestLocalShardRefusedApplyMovesNoWatermark: the watermark a shard hands
// the coordinator is time its Session actually closed. A batch the shard's
// durability layer refuses never applied, so it must not move the watermark
// the fleet minimum is taken over — and the Expire seam reports the refusal
// instead of a constant nil.
func TestLocalShardRefusedApplyMovesNoWatermark(t *testing.T) {
	sess, _, err := eagr.OpenDurable(eagr.NewGraph(4), eagr.DurabilityOptions{Dir: t.TempDir(), Fsync: eagr.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(eagr.QuerySpec{Aggregate: "sum", WindowTime: 10}); err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(eagr.IngestOptions{FlushInterval: -1, DisableAutoExpire: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	s := localShard{sess, ing}
	if wm, err := s.Apply([]eagr.Event{eagr.NewWrite(1, 5, 1)}); err != nil || wm == nil || *wm != 1 {
		t.Fatalf("first apply: watermark (%v, %v), want 1", wm, err)
	}
	if err := s.Expire(1); err != nil {
		t.Fatal(err)
	}
	if err := sess.SimulateCrash(); err != nil { // from here the log refuses everything
		t.Fatal(err)
	}
	if wm, _ := s.Apply([]eagr.Event{eagr.NewWrite(2, 7, 1000)}); wm == nil {
		t.Fatal("no watermark after a refused apply, want it still at 1")
	} else if *wm != 1 {
		t.Fatalf("watermark after a refused apply = %d, want it still at 1", *wm)
	}
	if err := s.Expire(1000); !errors.Is(err, eagr.ErrDurabilityClosed) {
		t.Fatalf("Expire on the closed durability layer = %v, want ErrDurabilityClosed", err)
	}
}
