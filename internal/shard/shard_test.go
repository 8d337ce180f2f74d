package shard

import (
	"errors"
	"slices"
	"strconv"
	"testing"

	eagr "repro"
	"repro/internal/graph"
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

// wmString formats a fleet watermark for a failure message.
func wmString(wm *int64) string {
	if wm == nil {
		return "none"
	}
	return strconv.FormatInt(*wm, 10)
}

// ownedBy returns a node of a 32-node graph that each of n shards owns.
func ownedBy(n int) []eagr.NodeID {
	owned := make([]eagr.NodeID, n)
	for v := 31; v >= 0; v-- {
		owned[Owner(graph.NodeID(v), n)] = graph.NodeID(v)
	}
	return owned
}

// TestClusterWatermarkIsStreamTime pins the coordinator time contract: the
// fleet watermark is the coordinator's stream time, absent until an event
// has carried a timestamp, and it never moves backwards: a late write on
// another shard does not pull it down to its own timestamp. A timestamp
// the coordinator's clock stamped is stream time too, as it is for a
// single Ingestor.
func TestClusterWatermarkIsStreamTime(t *testing.T) {
	clock := eagr.ClockFunc(func() int64 { return 500 })
	cluster, err := Open(workload.SocialGraph(32, 3, 1), Options{Shards: 2, Ingest: eagr.IngestOptions{Clock: clock}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if wm, err := cluster.Apply(nil); err != nil || wm != nil {
		t.Fatalf("watermark before any event applied = (%s, %v)", wmString(wm), err)
	}
	owned := ownedBy(2)
	wm, err := cluster.Apply([]eagr.Event{eagr.NewWrite(owned[0], 1, 100)})
	if err != nil || wm == nil || *wm != 100 {
		t.Fatalf("watermark after a write at 100 = (%s, %v), want 100", wmString(wm), err)
	}
	wm, err = cluster.Apply([]eagr.Event{eagr.NewWrite(owned[1], 1, 40)})
	if err != nil || wm == nil || *wm != 100 {
		t.Fatalf("watermark after a late write at 40 on the other shard = (%s, %v), want 100", wmString(wm), err)
	}
	wm, err = cluster.Apply([]eagr.Event{{Kind: graph.ContentWrite, Node: owned[1], Value: 1}})
	if err != nil || wm == nil || *wm != 500 {
		t.Fatalf("watermark after a write the clock stamped 500 = (%s, %v), want 500", wmString(wm), err)
	}
}

// windowedPair returns, on a 2-shard fleet over g, a writer shard 0 owns
// with a reader whose ego network holds it, and a writer shard 1 owns that
// is in neither's ego network.
func windowedPair(t *testing.T, g *graph.Graph) (w0, r, w1 eagr.NodeID) {
	t.Helper()
	for _, v := range g.Nodes() {
		if Owner(v, 2) != 0 || len(g.Out(v)) == 0 {
			continue
		}
		w0, r = v, g.Out(v)[0]
		for _, u := range g.Nodes() {
			if Owner(u, 2) == 1 && u != r && !slices.Contains(g.Out(u), r) {
				return w0, r, u
			}
		}
	}
	t.Fatal("graph has no suitable writer pair")
	return
}

// TestFleetTimeMatchesSingleProcess: a time window is defined over the one
// combined stream, so a write on shard 1 at ts 100 must expire shard 0's
// write at ts 10 out of a 40-wide window, exactly as it does in a single
// Session fed the same batches through an Ingestor.
func TestFleetTimeMatchesSingleProcess(t *testing.T) {
	g := workload.SocialGraph(32, 3, 1)
	w0, r, w1 := windowedPair(t, g)
	spec := eagr.QuerySpec{Aggregate: "sum", WindowTime: 40}
	batches := [][]eagr.Event{{eagr.NewWrite(w0, 5, 10)}, {eagr.NewWrite(w1, 1, 100)}}

	cluster, err := Open(g.Clone(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cq, err := cluster.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eagr.Open(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sq, err := sess.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := sess.Ingest(eagr.IngestOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	var wm *int64
	for _, b := range batches {
		if wm, err = cluster.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := ing.SendEvents(b); err != nil {
			t.Fatal(err)
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if single, ok := ing.Watermark(); !ok || wm == nil || *wm != single || single != 100 {
		t.Fatalf("fleet watermark %s, single-process watermark (%d, %v), want both 100", wmString(wm), single, ok)
	}
	for _, v := range g.Nodes() {
		want, werr := sq.Read(v)
		got, gerr := cq.Read(v)
		if (werr != nil) != (gerr != nil) || werr == nil && !want.Eq(got) {
			t.Fatalf("node %d (w0 %d, reader %d, w1 %d): single process %+v (%v), fleet %+v (%v)",
				v, w0, r, w1, want, werr, got, gerr)
		}
	}
}

// TestQuietShardDoesNotPinFleetTime: a shard that receives nothing after
// ts 1 must not hold the fleet's time there while the other shard's stream
// runs on to ts 1001; the quiet shard's writer leaves its reader's window.
func TestQuietShardDoesNotPinFleetTime(t *testing.T) {
	g := workload.SocialGraph(32, 3, 1)
	w0, r, w1 := windowedPair(t, g)
	cluster, err := Open(g, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	q, err := cluster.Register(eagr.QuerySpec{Aggregate: "sum", WindowTime: 40})
	if err != nil {
		t.Fatal(err)
	}
	wm, err := cluster.Apply([]eagr.Event{eagr.NewWrite(w0, 5, 1)})
	for ts := int64(2); ts <= 1001 && err == nil; ts++ {
		wm, err = cluster.Apply([]eagr.Event{eagr.NewWrite(w1, 1, ts)})
	}
	if err != nil || wm == nil || *wm != 1001 || cluster.StreamTime() != 1001 {
		t.Fatalf("watermark (%s, %v), stream time %d, want both 1001", wmString(wm), err, cluster.StreamTime())
	}
	if res, err := q.ShardQuery(0).Read(r); err != nil || res.Valid {
		t.Fatalf("shard 0's reader %d = (%+v, %v), want writer %d's ts-1 write expired", r, res, err, w0)
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

func (f *faulty) Apply(events []eagr.Event) error {
	if f.apply {
		return errInjected
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

// counting is a Shard that counts the Expire calls it receives and fails
// them while failExpire is set. The coordinator's fan-out joins before
// Apply returns, so the test goroutine reads the fields race-free.
type counting struct {
	Shard
	expires    int
	failExpire bool
}

func (c *counting) Expire(ts int64) error {
	c.expires++
	if c.failExpire {
		return errInjected
	}
	return c.Shard.Expire(ts)
}

// TestApplySkipsExpireWhenTimeStands: an Apply whose stream time does not
// pass the time already closed — timestamp-less events stamped at stream
// time, a late write — issues no Expire; one that moves it issues exactly
// one per shard, and a failed expiry is retried by the next Apply.
func TestApplySkipsExpireWhenTimeStands(t *testing.T) {
	cluster, err := Open(workload.SocialGraph(32, 3, 1), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	shards := make([]*counting, 3)
	members := make([]Shard, 3)
	for i := range shards {
		shards[i] = &counting{Shard: cluster.local[i]}
		members[i] = shards[i]
	}
	co := NewCoordinator(members, nil)
	owned := ownedBy(3)
	tsless := func(v eagr.NodeID) eagr.Event { return eagr.Event{Kind: graph.ContentWrite, Node: v, Value: 1} }
	steps := []struct {
		name   string
		events []eagr.Event
		want   int // Expire calls per shard so far
	}{
		{"ts-less before any time", []eagr.Event{tsless(owned[0]), tsless(owned[1])}, 0},
		{"first timestamp", []eagr.Event{eagr.NewWrite(owned[0], 1, 10)}, 1},
		{"ts-less at stream time", []eagr.Event{tsless(owned[0]), tsless(owned[1]), tsless(owned[2])}, 1},
		{"ts-less structural", []eagr.Event{{Kind: graph.EdgeAdd, Node: owned[0], Peer: owned[1]}}, 1},
		{"late write", []eagr.Event{eagr.NewWrite(owned[2], 1, 4)}, 1},
		{"time moves", []eagr.Event{eagr.NewWrite(owned[1], 1, 20), tsless(owned[2])}, 2},
		{"no events", nil, 2},
	}
	for _, st := range steps {
		if _, err := co.Apply(st.events); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for i, s := range shards {
			if s.expires != st.want {
				t.Fatalf("%s: shard %d received %d Expire calls, want %d", st.name, i, s.expires, st.want)
			}
		}
	}
	shards[1].failExpire = true
	if _, err := co.Apply([]eagr.Event{eagr.NewWrite(owned[0], 1, 30)}); !errors.Is(err, errInjected) {
		t.Fatalf("apply with shard 1 refusing expiry = %v", err)
	}
	shards[1].failExpire = false
	wm, err := co.Apply([]eagr.Event{tsless(owned[0])})
	if err != nil || wm == nil || *wm != 30 {
		t.Fatalf("retrying apply = (%s, %v), want watermark 30", wmString(wm), err)
	}
	for i, s := range shards {
		if s.expires != 4 {
			t.Fatalf("shard %d received %d Expire calls, want 4: the failed expiry must be retried once", i, s.expires)
		}
	}
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
		t.Fatalf("ts-less write: watermark (%s, %v), want 100: it was stamped into the future", wmString(wm), err)
	}
	if res, err := q.Read(reader); err != nil || !res.Valid || res.Scalar != 8 {
		t.Fatalf("windowed read = (%+v, %v), want both writes in the window (8)", res, err)
	}
}

// TestLocalShardRefusedApplyMovesNoWatermark: the Expire seam of a local
// shard reports an advance its durability layer refuses instead of a
// constant nil, so the coordinator keeps the time unclosed and retries it.
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
	if err := s.Apply([]eagr.Event{eagr.NewWrite(1, 5, 1)}); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	if err := s.Expire(1); err != nil {
		t.Fatal(err)
	}
	if err := sess.SimulateCrash(); err != nil { // from here the log refuses everything
		t.Fatal(err)
	}
	if err := s.Expire(1000); !errors.Is(err, eagr.ErrDurabilityClosed) {
		t.Fatalf("Expire on the closed durability layer = %v, want ErrDurabilityClosed", err)
	}
}
