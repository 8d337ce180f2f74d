package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/simtest"
)

// holdsLive reports whether s holds a maintainer — the one live overlay a
// system has — and how many times it has built one.
func holdsLive(s *System) (live bool, thaws int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maint != nil, s.thaws
}

// TestContentOnlyHoldsNoLiveOverlay: registering, writing, reading,
// subscribing, asking for statistics, rebalancing and re-optimizing leave
// every system with one copy of its overlay, the engine's Topology — a
// same-shape sibling's included, which shares the first system's arrays,
// and the decisions a Rebalance flips or a Reoptimize makes, which they
// install on it.
func TestContentOnlyHoldsNoLiveOverlay(t *testing.T) {
	g := shapeGraph()
	m := NewMulti(g)
	var atts []*Attachment
	for _, c := range []struct {
		name string
		opts Options
	}{{"sum", Options{}}, {"count", Options{}}, {"max", Options{}}, {"sum", Options{Algorithm: construct.AlgIOB}}} {
		a, err := m.Attach(c.name+"/"+c.opts.Algorithm, Query{Aggregate: mustAgg(t, c.name)}, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		atts = append(atts, a)
	}
	if m.OverlaysCloned() != 1 {
		t.Fatalf("fixture: %d overlays cloned, want count's from sum's", m.OverlaysCloned())
	}
	sub, err := atts[0].Subscribe(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	defer atts[0].Unsubscribe(sub)
	var evs []graph.Event
	for i := range 2000 {
		evs = append(evs, graph.Event{Node: graph.NodeID(i * 7 % g.MaxID()), Value: int64(i % 13), TS: int64(i + 1)})
	}
	if _, err := m.Apply(evs, graph.NoAdvance); err != nil {
		t.Fatal(err)
	}
	for _, a := range atts {
		for range 50 { // read-heavy: readers the 1:1 estimate left pull flip
			for v := range graph.NodeID(g.MaxID()) {
				if _, err := a.Read(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = a.System().Stats()
		_ = a.System().AdaptivityStats()
		_ = a.OwnReaders()
	}
	if flips, err := m.Rebalance(); err != nil || flips == 0 {
		t.Fatalf("fixture: Rebalance flipped %d nodes, %v", flips, err)
	}
	for _, a := range atts {
		if err := a.System().Reoptimize(dataflow.Uniform(g.MaxID(), 100, 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	for i, sys := range m.Systems() {
		if live, thaws := holdsLive(sys); live || thaws != 0 {
			t.Errorf("system %d holds a live overlay or maintainer (%d builds)", i, thaws)
		}
	}
}

// keepLive makes s, just compiled, hold what a system that is never frozen
// holds: the overlay construction produced, its decided Topology installed
// in the engine, with a maintainer built over it. Its first structural run
// therefore repairs that overlay, not a Thaw of a Topology.
func keepLive(t *testing.T, s *System) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ov, err := s.mine()
	var top *overlay.Topology
	if err == nil {
		top, err = s.decide(ov.Flatten(), s.wl)
	}
	if err == nil {
		err = s.eng.Rebuild(top, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.maint, _ = construct.NewMaintainer(ov)
	if (s.maint != nil) != s.maintainable {
		t.Fatalf("fixture: maintainer %t, maintainable %t", s.maint != nil, s.maintainable)
	}
}

// TestThawedMatchesNeverFrozen: a frozen system's first structural run and
// first Rebalance — in either order — leave the installed overlay
// (structure, edge order and decisions), the flips and every read exactly
// as they are on a system that held its live overlay from compile on.
func TestThawedMatchesNeverFrozen(t *testing.T) {
	for _, c := range []struct {
		name string
		a    agg.Aggregate
		opts Options
	}{
		{"sum/vnma", agg.Sum{}, Options{Algorithm: construct.AlgVNMA}},
		{"sum/vnmn", agg.Sum{}, Options{}},
		{"topk/iob", agg.TopK{K: 3}, Options{Algorithm: construct.AlgIOB}},
	} {
		for _, structuralFirst := range []bool{true, false} {
			name := c.name + "/rebalance-first"
			if structuralFirst {
				name = c.name + "/structural-first"
			}
			t.Run(name, func(t *testing.T) {
				frozen, replay := zipfFixture(t, c.a, c.opts)
				live, replayLive := zipfFixture(t, c.a, c.opts)
				keepLive(t, live)
				if held, _ := holdsLive(frozen); held {
					t.Fatal("fixture: the frozen system holds a live overlay")
				}
				both := func(step func(*System) int, label string) {
					t.Helper()
					a, b := step(frozen), step(live)
					t.Logf("%s: %d", label, a)
					if a != b {
						t.Fatalf("%s: %d on the frozen system, %d on the live one", label, a, b)
					}
					sameSystems(t, frozen, live, label)
				}
				structural := func(s *System) int {
					var evs []graph.Event
					for i := range 12 {
						u, v := graph.NodeID(37*i%600), graph.NodeID((91*i+5)%600)
						kind := graph.EdgeAdd
						if out := s.g.Out(u); i%3 == 2 && len(out) > 0 {
							kind, v = graph.EdgeRemove, out[0]
						}
						if u != v {
							evs = append(evs, graph.Event{Kind: kind, Node: u, Peer: v})
						}
					}
					_, err := s.multi.Apply(evs, graph.NoAdvance)
					if err != nil {
						t.Fatal(err)
					}
					return int(s.recompiles.Load())
				}
				rebalance := func(s *System) int {
					flips, err := s.Rebalance()
					if err != nil {
						t.Fatal(err)
					}
					return flips
				}
				replay(0)
				replayLive(0)
				if structuralFirst {
					both(structural, "structural run")
					both(rebalance, "rebalance")
				} else {
					both(rebalance, "rebalance")
					both(structural, "structural run")
				}
				replay(1)
				replayLive(1)
				both(rebalance, "second rebalance")
			})
		}
	}
}

// sameSystems fails unless a and b have byte-identical installed overlays
// and answer every read alike.
func sameSystems(t *testing.T, a, b *System, label string) {
	t.Helper()
	if !bytes.Equal(overlayBytes(t, a), overlayBytes(t, b)) {
		t.Fatalf("%s: the overlays differ", label)
	}
	for _, v := range a.g.Nodes() {
		ra, errA := a.eng.Read(v)
		rb, errB := b.eng.Read(v)
		if errA != nil || errB != nil || !ra.Eq(rb) {
			t.Fatalf("%s: read(%d) = %v, %v on the frozen system, %v, %v on the live one", label, v, ra, errA, rb, errB)
		}
	}
}

// TestFirstThawRace: a frozen system's first Rebalance, structural run,
// merged-member attach, Stats and Reoptimize race. Between them they build
// exactly one live overlay, mine nothing, and every read afterwards is the
// simtest model's.
func TestFirstThawRace(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := range rounds {
		rng := rand.New(rand.NewSource(int64(round)))
		g := simtest.RandomGraph(rng, 24)
		model := simtest.NewModel(g)
		m := NewMulti(g)
		opts := Options{Algorithm: construct.AlgVNMA}
		in, err := m.AttachMerged("sum/1", "sum", Query{Aggregate: agg.Sum{}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		model.Register(0, simtest.Spec{Aggregate: "sum", Hops: 1})
		ts := int64(0)
		writes := func(n int) {
			var evs []graph.Event
			for range n {
				ts++
				evs = append(evs, graph.Event{Node: graph.NodeID(rng.Intn(24)), Value: rng.Int63n(50), TS: ts})
			}
			if _, err := m.Apply(evs, graph.NoAdvance); err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				if err := model.Apply(ev, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		writes(200)
		var structural []graph.Event
		for range 6 {
			kind := graph.EdgeAdd
			if rng.Intn(2) == 0 {
				kind = graph.EdgeRemove
			}
			structural = append(structural, graph.Event{Kind: kind, Node: graph.NodeID(rng.Intn(24)), Peer: graph.NodeID(rng.Intn(24))})
		}

		s := in.System()
		var hop2 *Attachment
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, op := range []func(){
			func() { _, _ = m.Apply(structural, graph.NoAdvance) }, // invalid events are skipped
			func() {
				if _, err := s.Rebalance(); err != nil {
					t.Error(err)
				}
			},
			func() {
				hop2, err = m.AttachMerged("sum/2", "sum", Query{Aggregate: agg.Sum{}, Neighborhood: graph.KHopIn{K: 2}}, opts)
				if err != nil {
					t.Error(err)
				}
			},
			func() { _ = s.Stats() },
			func() {
				if err := s.Reoptimize(nil); err != nil {
					t.Error(err)
				}
			},
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				op()
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, ev := range structural {
			if err := model.Apply(ev, nil); err != nil {
				t.Fatal(err)
			}
		}
		model.Register(1, simtest.Spec{Aggregate: "sum", Hops: 2})
		if hop2.System() != s {
			t.Fatal("the 2-hop query did not join the family")
		}
		if _, thaws := holdsLive(s); thaws != 1 || m.OverlaysMined() != 1 || s.recompiles.Load() != 0 {
			t.Fatalf("round %d: %d live overlays built, %d mined, %d recompiles; want 1, 1, 0",
				round, thaws, m.OverlaysMined(), s.recompiles.Load())
		}
		writes(100)
		for slot, a := range []*Attachment{in, hop2} {
			for _, v := range model.Nodes() {
				got, err := a.Read(v)
				want, _ := model.Read(slot, v)
				if err != nil || !simtest.Result(got).Eq(want) {
					t.Fatalf("round %d: q%d read(%d) = %+v, %v; model %+v", round, slot, v, got, err, want)
				}
			}
		}
	}
}
