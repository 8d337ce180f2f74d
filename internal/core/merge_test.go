package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/workload"
)

// mergeSpecs is the member mix the merged-overlay tests exercise: same
// aggregate/window semantics, different neighborhoods and reader sets.
func mergeSpecs() []MemberSpec {
	return []MemberSpec{
		{Neighborhood: graph.InNeighbors{}},
		{Neighborhood: graph.KHopIn{K: 2}},
		{Neighborhood: graph.OutNeighbors{}},
		{Neighborhood: graph.InNeighbors{}, Predicate: graph.MinInDegree(2)},
	}
}

// attachFamily registers one sum query per spec as members of one merge
// family of a fresh MultiSystem over g — the way production grows a family:
// the first member compiles, each later one extends the overlay — so member
// i has view tag i. It returns the family's system and the attachments by
// tag.
func attachFamily(t *testing.T, g *graph.Graph, specs []MemberSpec, opts Options) (*System, []*Attachment) {
	t.Helper()
	m := NewMulti(g)
	atts := make([]*Attachment, len(specs))
	for i, spec := range specs {
		a, err := m.AttachMerged(fmt.Sprintf("member-%d", i), "family",
			Query{Aggregate: agg.Sum{}, Neighborhood: spec.Neighborhood, Predicate: spec.Predicate}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.ViewTag() != int32(i) || i > 0 && a.System() != atts[0].System() {
			t.Fatalf("fixture: member %d joined as tag %d of another system", i, a.ViewTag())
		}
		atts[i] = a
	}
	return atts[0].System(), atts
}

// mergeOp is one entry of the recorded op log. Oracles attached mid-stream
// replay the full log into a fresh graph, which reconstructs both the
// deterministic graph state (node ids are allocated deterministically) and
// the window contents the merged system's writers accumulated.
type mergeOp struct {
	kind       byte // 'w' write, 'e' add edge, 'r' remove edge, 'n' add node, 'd' remove node
	u, v       graph.NodeID
	value, ts  int64
	batch      []graph.Event // kind 'b' (content) and 's' (one structural run)
	batchStart int
}

// mergeHarness drives a merged System and one independently-compiled
// single-query oracle per live member over replica graphs, applying every
// operation to all of them.
type mergeHarness struct {
	t       *testing.T
	base    func() *graph.Graph
	merged  *System
	members map[int32]*Attachment
	oracles map[int32]*System
	specs   map[int32]MemberSpec
	log     []mergeOp
}

// newMergeHarness builds the family and its oracles, each over its own
// base() graph.
func newMergeHarness(t *testing.T, base func() *graph.Graph, specs []MemberSpec) *mergeHarness {
	h := &mergeHarness{
		t:       t,
		base:    base,
		members: map[int32]*Attachment{},
		oracles: map[int32]*System{},
		specs:   map[int32]MemberSpec{},
	}
	merged, atts := attachFamily(t, base(), specs, Options{Algorithm: construct.AlgVNMA})
	h.merged = merged
	for i, spec := range specs {
		h.members[int32(i)] = atts[i]
		h.specs[int32(i)] = spec
		h.oracles[int32(i)] = h.freshOracle(spec)
	}
	return h
}

// freshOracle compiles a single-query system for spec over a replica graph
// and replays the recorded op log into it.
func (h *mergeHarness) freshOracle(spec MemberSpec) *System {
	o, err := Compile(h.base(), Query{
		Aggregate:    agg.Sum{},
		Neighborhood: spec.Neighborhood,
		Predicate:    spec.Predicate,
	}, Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		h.t.Fatal(err)
	}
	for _, op := range h.log {
		h.applyOne(o, op)
	}
	return o
}

func (h *mergeHarness) applyOne(s *System, op mergeOp) {
	var err error
	switch op.kind {
	case 'w':
		err = s.Engine().Write(op.v, op.value, op.ts)
	case 'b':
		s.Engine().Apply(op.batch, graph.NoAdvance)
	case 's':
		_, err = s.multi.Apply(op.batch, graph.NoAdvance)
	case 'e':
		err = s.AddGraphEdge(op.u, op.v)
	case 'r':
		err = s.RemoveGraphEdge(op.u, op.v)
	case 'n':
		_, err = applyOne(s.multi, graph.Event{Kind: graph.NodeAdd})
	case 'd':
		_, err = applyOne(s.multi, graph.Event{Kind: graph.NodeRemove, Node: op.v})
	}
	if err != nil {
		h.t.Fatalf("op %c(%d,%d): %v", op.kind, op.u, op.v, err)
	}
}

// apply records the op and applies it to the merged system and every oracle.
func (h *mergeHarness) apply(op mergeOp) {
	h.log = append(h.log, op)
	h.applyOne(h.merged, op)
	for _, o := range h.oracles {
		h.applyOne(o, op)
	}
}

// attach adds a member to the merged family online and compiles its oracle
// from the full op history.
func (h *mergeHarness) attach(spec MemberSpec) int32 {
	// Tags are never reused, so the next tag names a key no member has had.
	a, err := h.merged.multi.AttachMerged(fmt.Sprintf("member-%d", len(h.merged.views)), "family",
		Query{Aggregate: agg.Sum{}, Neighborhood: spec.Neighborhood, Predicate: spec.Predicate},
		Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		h.t.Fatalf("AttachMerged: %v", err)
	}
	if a.System() != h.merged {
		h.t.Fatal("member did not join the merged family")
	}
	tag := a.ViewTag()
	h.members[tag] = a
	h.specs[tag] = spec
	h.oracles[tag] = h.freshOracle(spec)
	return tag
}

// retire removes a live member from the merged family and its oracle.
func (h *mergeHarness) retire(tag int32) {
	if err := h.members[tag].Detach(); err != nil {
		h.t.Fatalf("Detach(%d): %v", tag, err)
	}
	delete(h.members, tag)
	delete(h.oracles, tag)
	delete(h.specs, tag)
}

// compare checks every live member's view against its oracle on every node.
func (h *mergeHarness) compare(when string) {
	h.t.Helper()
	g := h.merged.g
	for tag, o := range h.oracles {
		g.ForEachNode(func(v graph.NodeID) {
			got, gotErr := h.members[tag].Read(v)
			want, wantErr := o.eng.Read(v)
			if (gotErr == nil) != (wantErr == nil) {
				h.t.Fatalf("%s: view %d node %d: err %v vs oracle %v", when, tag, v, gotErr, wantErr)
			}
			if gotErr != nil {
				return
			}
			if got.Valid != want.Valid || got.Scalar != want.Scalar {
				h.t.Fatalf("%s: view %d node %d: merged {%v %d} oracle {%v %d}",
					when, tag, v, got.Valid, got.Scalar, want.Valid, want.Scalar)
			}
		})
	}
}

// TestMergedBasicLifecycle walks the deterministic happy path: merged
// compile, reads per view, online member attach, structural churn, retire.
func TestMergedBasicLifecycle(t *testing.T) {
	h := newMergeHarness(t, func() *graph.Graph { return multiRing(12) }, mergeSpecs()[:2])
	for i := 0; i < 100; i++ {
		h.apply(mergeOp{kind: 'w', v: graph.NodeID(i % 12), value: int64(i), ts: int64(i)})
	}
	h.compare("after writes")
	tag := h.attach(MemberSpec{Neighborhood: graph.OutNeighbors{}})
	if tag != 2 {
		t.Fatalf("new member tag = %d, want 2", tag)
	}
	h.compare("after online attach")
	h.apply(mergeOp{kind: 'e', u: 0, v: 5})
	h.apply(mergeOp{kind: 'w', v: 0, value: 7, ts: 200})
	h.compare("after structural churn")
	h.retire(1)
	if _, err := h.merged.eng.ReadTagged(1, 0); err == nil {
		t.Fatal("retired view still readable")
	}
	h.compare("after retire")
	if got := h.merged.Stats().Views; got != 2 {
		t.Fatalf("live views = %d, want 2", got)
	}
}

// TestMergedMatchesOraclesUnderChurn is the merged-overlay correctness
// property: under randomized content writes, batched ingest, edge and node
// churn, and member attach/retire mid-stream, every member view of ONE
// merged overlay answers exactly like an independently compiled
// single-query system fed the same history.
func TestMergedMatchesOraclesUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newMergeHarness(t, func() *graph.Graph { return multiRing(16) }, mergeSpecs())
			extra := []MemberSpec{
				{Neighborhood: graph.KHopIn{K: 3}},
				{Neighborhood: graph.InNeighbors{}, Predicate: graph.MinInDegree(1)},
			}
			var retirable []int32
			for step := 0; step < 120; step++ {
				g := h.merged.g
				nodes := g.Nodes()
				pick := func() graph.NodeID { return nodes[rng.Intn(len(nodes))] }
				switch r := rng.Intn(100); {
				case r < 55:
					h.apply(mergeOp{kind: 'w', v: pick(), value: int64(rng.Intn(100)), ts: int64(step)})
				case r < 70:
					batch := make([]graph.Event, 0, 32)
					for i := 0; i < 32; i++ {
						batch = append(batch, graph.Event{
							Kind: graph.ContentWrite, Node: pick(),
							Value: int64(rng.Intn(100)), TS: int64(step),
						})
					}
					h.apply(mergeOp{kind: 'b', batch: batch})
				case r < 80:
					u, v := pick(), pick()
					if u != v && !g.HasEdge(u, v) {
						h.apply(mergeOp{kind: 'e', u: u, v: v})
					}
				case r < 88:
					u := pick()
					if outs := g.Out(u); len(outs) > 1 {
						h.apply(mergeOp{kind: 'r', u: u, v: outs[rng.Intn(len(outs))]})
					}
				case r < 92:
					h.apply(mergeOp{kind: 'n'})
				case r < 95:
					if len(nodes) > 8 {
						h.apply(mergeOp{kind: 'd', v: pick()})
					}
				case r < 98:
					if len(extra) > 0 {
						retirable = append(retirable, h.attach(extra[0]))
						extra = extra[1:]
					}
				default:
					if len(retirable) > 0 {
						h.retire(retirable[0])
						retirable = retirable[1:]
					}
				}
				if step%20 == 19 {
					h.compare(fmt.Sprintf("step %d", step))
				}
			}
			h.compare("final")
		})
	}
}

// TestMergedAttachRetireDuringWriteBatch exercises the acceptance contract
// that members can join and leave a merged family while WriteBatch ingest
// is running (run under -race in CI stress): the family extension inserts
// readers online — no engine swap on a maintainable overlay — and the final
// per-view results still match independently compiled oracles fed the same
// writes.
func TestMergedAttachRetireDuringWriteBatch(t *testing.T) {
	g := multiRing(32)
	m := NewMulti(g)
	base := Query{Aggregate: agg.Sum{}, Neighborhood: graph.InNeighbors{}}
	opts := Options{Algorithm: construct.AlgVNMA}
	a0, err := m.AttachMerged("k0", "fam", base, opts)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]graph.Event, 0, 128)
			for j := 0; j < 128; j++ {
				batch = append(batch, graph.Event{
					Kind: graph.ContentWrite, Node: graph.NodeID(rng.Intn(32)),
					Value: int64(rng.Intn(50)), TS: int64(i),
				})
			}
			if _, err := m.Apply(batch, graph.NoAdvance); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		q2 := Query{Aggregate: agg.Sum{}, Neighborhood: graph.KHopIn{K: 2}}
		a, err := m.AttachMerged(fmt.Sprintf("k2-%d", i), "fam", q2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.System() != a0.System() {
			t.Fatal("2-hop member did not join the merged family")
		}
		if _, err := a.Read(3); err != nil {
			t.Fatalf("round %d: read through fresh member: %v", i, err)
		}
		if err := m.Detach(a); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesce, attach one final 2-hop member, and check both views against
	// oracles replaying the same final window state (window c=1: the state
	// is a function of each writer's last value, so replaying one write
	// per writer with its current value reproduces it).
	a2, err := m.AttachMerged("k2-final", "fam", Query{Aggregate: agg.Sum{},
		Neighborhood: graph.KHopIn{K: 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	last := map[graph.NodeID]int64{}
	for v := graph.NodeID(0); v < 32; v++ {
		// Recover each writer's settled value via the 1-hop view of a
		// node that aggregates exactly that writer... instead, write a
		// known value everywhere to settle the state deterministically.
		last[v] = int64(v) * 3
	}
	for v, val := range last {
		if err := writeOne(m, v, val, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	o1, err := Compile(multiRing(32), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Compile(multiRing(32), Query{Aggregate: agg.Sum{},
		Neighborhood: graph.KHopIn{K: 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range last {
		_ = o1.Engine().Write(v, val, 1_000_000)
		_ = o2.Engine().Write(v, val, 1_000_000)
	}
	for v := graph.NodeID(0); v < 32; v++ {
		got, err := a0.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := o1.eng.Read(v)
		if got.Scalar != want.Scalar {
			t.Fatalf("1-hop view node %d: %d want %d", v, got.Scalar, want.Scalar)
		}
		got2, err := a2.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		want2, _ := o2.eng.Read(v)
		if got2.Scalar != want2.Scalar {
			t.Fatalf("2-hop view node %d: %d want %d", v, got2.Scalar, want2.Scalar)
		}
	}
}

// TestMultiMergeFamilies checks the MultiSystem regrouping rules: exact
// keys share members, family keys share merged overlays, empty keys share
// nothing, and detach retires members before tearing families down.
func TestMultiMergeFamilies(t *testing.T) {
	m := NewMulti(multiRing(10))
	opts := Options{Algorithm: construct.AlgVNMA}
	q1 := Query{Aggregate: agg.Sum{}}
	q2 := Query{Aggregate: agg.Sum{}, Neighborhood: graph.KHopIn{K: 2}}
	a1, err := m.AttachMerged("k1", "fam", q1, opts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.AttachMerged("k2", "fam", q2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a1.System() != a2.System() {
		t.Fatal("family members must share one merged system")
	}
	if a1.ViewTag() == a2.ViewTag() {
		t.Fatal("family members must have distinct view tags")
	}
	if m.NumGroups() != 1 {
		t.Fatalf("groups = %d, want 1", m.NumGroups())
	}
	fams, queries := m.NumMergedFamilies()
	if fams != 1 || queries != 2 {
		t.Fatalf("merged families = %d/%d, want 1/2", fams, queries)
	}
	// An exact twin shares the member, not a new view.
	a2b, err := m.AttachMerged("k2", "fam", q2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a2b.ViewTag() != a2.ViewTag() || a2b.Shared() != 2 {
		t.Fatalf("exact twin: tag %d vs %d, shared %d", a2b.ViewTag(), a2.ViewTag(), a2b.Shared())
	}
	if a2.FamilySize() != 2 {
		t.Fatalf("family size = %d, want 2", a2.FamilySize())
	}
	// A different family key compiles separately.
	a3, err := m.AttachMerged("k3", "fam-count",
		Query{Aggregate: agg.Count{}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a3.System() == a1.System() {
		t.Fatal("different families must not share")
	}
	// Detaching one twin keeps the member; the second retires the view.
	if err := m.Detach(a2b); err != nil {
		t.Fatal(err)
	}
	if a2.Shared() != 1 {
		t.Fatalf("shared after twin detach = %d", a2.Shared())
	}
	if err := m.Detach(a2); err != nil {
		t.Fatal(err)
	}
	if got := a1.System().Stats().Views; got != 1 {
		t.Fatalf("live views after member retire = %d, want 1", got)
	}
	// Detaching the last member tears the family down.
	if err := m.Detach(a1); err != nil {
		t.Fatal(err)
	}
	if err := m.Detach(a3); err != nil {
		t.Fatal(err)
	}
	if m.NumGroups() != 0 {
		t.Fatalf("groups after teardown = %d", m.NumGroups())
	}
	if err := m.Detach(a1); !errors.Is(err, ErrDetached) {
		t.Fatalf("double detach: %v", err)
	}
}

// TestRebalanceAfterMemberGrowth is the regression test for the adaptor
// panic found by end-to-end verification: a member attach (and structural
// maintenance generally) grows the overlay beyond the adaptor's node
// range, and the next Rebalance's ObserveBatch must not index out of
// bounds — it must operate on a refreshed adaptor.
func TestRebalanceAfterMemberGrowth(t *testing.T) {
	sys, atts := attachFamily(t, multiRing(24), []MemberSpec{{}, {Neighborhood: graph.KHopIn{K: 2}}},
		Options{Algorithm: construct.AlgVNMA})
	for i := 0; i < 200; i++ {
		if err := sys.Engine().Write(graph.NodeID(i%24), int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := atts[1].Read(graph.NodeID(i % 24)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// Results must survive the rebalance + install.
	o, err := Compile(multiRing(24), Query{Aggregate: agg.Sum{}, Neighborhood: graph.KHopIn{K: 2}},
		Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		_ = o.Engine().Write(graph.NodeID(i%24), int64(i), int64(i))
	}
	for v := graph.NodeID(0); v < 24; v++ {
		got, err := atts[1].Read(v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := o.eng.Read(v)
		if got.Scalar != want.Scalar {
			t.Fatalf("post-rebalance view1 node %d: %d want %d", v, got.Scalar, want.Scalar)
		}
	}
}

// TestMergedFamilyGrowsWithoutRecompile: a maintainable merged family
// absorbs node additions in place, as a single-query system does — no graph
// size forces a rebuild — and both views still match their oracles once the
// new nodes carry edges and content.
func TestMergedFamilyGrowsWithoutRecompile(t *testing.T) {
	const base, added = 500, 600
	h := newMergeHarness(t, func() *graph.Graph { return workload.SocialGraph(base, 6, 1) }, []MemberSpec{{}, {}})
	grow := make([]graph.Event, added/12)
	for i := range grow {
		grow[i] = graph.Event{Kind: graph.NodeAdd}
	}
	for range 12 {
		h.apply(mergeOp{kind: 's', batch: grow})
	}
	if n := h.merged.Stats().Recompiles; n != 0 {
		t.Fatalf("%d node adds recompiled the family %d times, want 0", added, n)
	}
	for i := graph.NodeID(0); i < added; i += 10 {
		v := base + i
		h.apply(mergeOp{kind: 'e', u: i, v: v})
		h.apply(mergeOp{kind: 'e', u: v, v: (7 * i) % base})
	}
	for i := range 3000 {
		h.apply(mergeOp{kind: 'w', v: graph.NodeID(i % (base + added)), value: int64(i % 97), ts: int64(i)})
	}
	h.compare("after node adds")
}

// TestNodeAddsOnNonMaintainableMerged: on a merged system WITHOUT
// incremental maintenance (not maintainable, e.g. negative-edge overlays), a
// node addition takes the recompile fallback, and the rebuilt views still
// answer independently.
func TestNodeAddsOnNonMaintainableMerged(t *testing.T) {
	g := multiRing(12)
	sys, atts := attachFamily(t, g, []MemberSpec{
		{Neighborhood: graph.InNeighbors{}},
		{Neighborhood: graph.KHopIn{K: 2}},
	}, Options{Algorithm: construct.AlgVNMN})
	sys.maintainable = false
	if _, err := applyOne(sys.multi, graph.Event{Kind: graph.NodeAdd}); err != nil {
		t.Fatal(err)
	}
	if n := sys.Stats().Recompiles; n != 1 {
		t.Fatalf("recompiles = %d, want 1", n)
	}
	// Write into the ring and check a 1-hop vs 2-hop disagreement survives
	// the recompile.
	for i := 0; i < 12; i++ {
		if err := sys.Engine().Write(graph.NodeID(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := atts[0].Read(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := atts[1].Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Scalar != 2 || r2.Scalar != 4 {
		t.Fatalf("post-recompile views = %d/%d, want 2/4", r1.Scalar, r2.Scalar)
	}
}

// TestMergedViewOutOfRangeNode: a node id outside the graph must report
// ErrUnknownNode on every member view, through the attachment and through
// the engine's untagged Read/ReadInto alike.
func TestMergedViewOutOfRangeNode(t *testing.T) {
	g := multiRing(12)
	sys, atts := attachFamily(t, g, []MemberSpec{
		{Neighborhood: graph.InNeighbors{}},
		{Neighborhood: graph.KHopIn{K: 2}},
	}, Options{Algorithm: construct.AlgVNMA})
	maxID := graph.NodeID(g.MaxID())
	for _, v := range []graph.NodeID{maxID, maxID + 2, -1} {
		for tag, att := range atts {
			if _, err := att.Read(v); !errors.Is(err, exec.ErrUnknownNode) {
				t.Fatalf("Read(%d) on view %d = %v, want ErrUnknownNode", v, tag, err)
			}
			if att.Covered(v) {
				t.Fatalf("Covered(%d) on view %d true for out-of-range node", v, tag)
			}
		}
		// The untagged engine reads resolve like ReadTagged(0, v).
		if r, err := sys.Engine().Read(v); !errors.Is(err, exec.ErrUnknownNode) {
			t.Fatalf("Engine().Read(%d) = %v, %v; want ErrUnknownNode", v, r, err)
		}
		var res agg.Result
		if err := sys.Engine().ReadInto(v, &res); !errors.Is(err, exec.ErrUnknownNode) {
			t.Fatalf("Engine().ReadInto(%d) = %v; want ErrUnknownNode", v, err)
		}
	}
}

// TestReoptimizeKeepsMergedCoverage: Reoptimize must price every member's
// readers by their node's read rate, or tag>=1 members read frequency 0 and
// every one of their readers is demoted to pull.
func TestReoptimizeKeepsMergedCoverage(t *testing.T) {
	const n = 16
	sys, atts := attachFamily(t, multiRing(n), []MemberSpec{
		{Neighborhood: graph.InNeighbors{}},
		{Neighborhood: graph.KHopIn{K: 2}},
	}, Options{Algorithm: construct.AlgVNMA})
	// A drastically read-heavy workload: every reader should be worth
	// push-covering, in BOTH member views.
	if err := sys.Reoptimize(dataflow.Uniform(n, 1000, 1)); err != nil {
		t.Fatal(err)
	}
	covered := [2]int{}
	for tag := int32(0); tag < 2; tag++ {
		for v := graph.NodeID(0); v < n; v++ {
			if atts[tag].Covered(v) {
				covered[tag]++
			}
		}
	}
	if covered[1] < covered[0] {
		t.Fatalf("post-Reoptimize coverage skewed against the merged member: view0=%d view1=%d",
			covered[0], covered[1])
	}
	if covered[1] == 0 {
		t.Fatalf("read-heavy Reoptimize left the merged member uncovered (view0=%d view1=%d)",
			covered[0], covered[1])
	}
}
