package core

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// installFixtures are the two ways a structural change reaches the engine:
// an overlay repaired in place (iob on a small graph) and one recompiled from
// scratch (the auto-selected VNM_N on the near-biclique). Both end in the
// same exec.Engine.Rebuild, and everything a caller can observe must agree.
var installFixtures = []struct {
	name      string
	alg       string
	graph     func() *graph.Graph
	w, v      graph.NodeID // w feeds v
	recompile bool
}{
	{"repair", construct.AlgIOB, func() *graph.Graph {
		g := graph.NewWithNodes(6)
		for _, e := range [][2]graph.NodeID{{0, 5}, {1, 5}, {2, 5}, {3, 4}, {0, 4}} {
			_ = g.AddEdge(e[0], e[1])
		}
		return g
	}, 0, 5, false},
	{"recompile", "", func() *graph.Graph { return nearBiclique(11) }, 3, 150, true},
}

func pendingUpdates(sub *exec.Subscription) (us []exec.Update) {
	for {
		select {
		case u := <-sub.Updates():
			us = append(us, u)
		default:
			return us
		}
	}
}

// TestSubscriptionFollowsReusedNodeID: a subscription restricted to node v
// outlives v's removal and picks up again when the id is reused and wired
// back in — on a repaired overlay exactly as on a recompiled one. Shard
// replicas compile their overlays independently, so the two paths
// disagreeing here means replicas disagreeing.
func TestSubscriptionFollowsReusedNodeID(t *testing.T) {
	for _, fx := range installFixtures {
		t.Run(fx.name, func(t *testing.T) {
			g := fx.graph()
			s, err := Compile(g, Query{Aggregate: agg.Sum{}, Continuous: true}, Options{Algorithm: fx.alg})
			if err != nil {
				t.Fatal(err)
			}
			sub, err := s.Engine().Subscribe(16, fx.v)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Engine().Unsubscribe(sub)
			if err := s.Engine().Write(fx.w, 7, 1); err != nil {
				t.Fatal(err)
			}
			if us := pendingUpdates(sub); len(us) != 1 || us[0].Node != fx.v || us[0].Result.Scalar != 7 {
				t.Fatalf("first write delivered %+v, want one update {node %d, 7}", us, fx.v)
			}

			if _, err := applyOne(s.multi, graph.Event{Kind: graph.NodeRemove, Node: fx.v}); err != nil {
				t.Fatal(err)
			}
			// The node has no reader now: its subscription hears nothing.
			if err := s.Engine().Write(fx.w, 8, 2); err != nil {
				t.Fatal(err)
			}
			if us := pendingUpdates(sub); len(us) != 0 {
				t.Fatalf("subscription on removed node %d received %+v", fx.v, us)
			}

			ids, err := applyOne(s.multi, graph.Event{Kind: graph.NodeAdd})
			if err != nil {
				t.Fatal(err)
			}
			v := ids[0]
			if v != fx.v {
				t.Fatalf("NodeAdd allocated %d, want the reused id %d", v, fx.v)
			}
			if err := s.AddGraphEdge(fx.w, v); err != nil {
				t.Fatal(err)
			}
			pendingUpdates(sub) // a recompile may have announced the rewired reader
			if err := s.Engine().Write(fx.w, 42, 3); err != nil {
				t.Fatal(err)
			}
			us := pendingUpdates(sub)
			if len(us) != 1 || us[0].Node != v || us[0].Result.Scalar != 42 {
				t.Fatalf("write after the id was reused delivered %+v, want one update {node %d, 42}", us, v)
			}
			if got, err := s.eng.Read(v); err != nil || got.Scalar != 42 {
				t.Fatalf("read(%d) = %v, %v; want 42", v, got, err)
			}
			if got := s.Stats().Recompiles > 0; got != fx.recompile {
				t.Fatalf("Recompiles = %d, want recompile path taken = %v", s.Stats().Recompiles, fx.recompile)
			}
		})
	}
}

// TestFailedInstallSurfaces: when the repaired overlay cannot be installed
// (here: the maintainer's overlay holds a pull-annotated writer slot the
// installed Topology does not have, so the installed decisions do not cover
// it, nothing reads it so the decision repair does not touch it, and the
// engine refuses it), the structural operation reports it and falls back to
// a recompile, so reads stay exact. The parent of this test's commit
// swallowed the error and kept serving the old plan.
func TestFailedInstallSurfaces(t *testing.T) {
	out := Query{Aggregate: agg.Sum{}, Neighborhood: graph.OutNeighbors{}}
	var member *Attachment
	ops := []struct {
		name  string
		setup func(t *testing.T, m *MultiSystem)
		op    func(m *MultiSystem, s *System) error
	}{
		{"edge", nil, func(_ *MultiSystem, s *System) error { return s.AddGraphEdge(6, 1) }},
		{"attach", nil, func(m *MultiSystem, _ *System) error {
			_, err := m.AttachMerged("out", "family", out, Options{})
			return err
		}},
		{"retire", func(t *testing.T, m *MultiSystem) {
			var err error
			if member, err = m.AttachMerged("out", "family", out, Options{}); err != nil {
				t.Fatal(err)
			}
		}, func(m *MultiSystem, _ *System) error { return m.Detach(member) }},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			g := paperGraph()
			g.AddNode() // 7: a writer slot with no reader downstream
			m := NewMulti(g)
			a, err := m.AttachMerged("in", "family", Query{Aggregate: agg.Sum{}},
				Options{Algorithm: construct.AlgIOB, Mode: ModeAllPull})
			if err != nil {
				t.Fatal(err)
			}
			s := a.System()
			writeFigure1(t, s)
			if tc.setup != nil {
				tc.setup(t, m)
			}
			s.mu.Lock()
			ov := s.maintainerLocked().Overlay()
			if err := ov.RemoveNode(ov.Writer(7)); err != nil {
				t.Fatalf("fixture: node 7's writer slot: %v", err)
			}
			ov.Node(ov.AddWriter(7)).Dec = overlay.Pull
			s.mu.Unlock()
			if err := ov.Flatten().CheckDecisions(); err == nil {
				t.Fatal("fixture: decisions still valid")
			}

			if err := tc.op(m, s); err == nil {
				t.Fatal("the operation returned nil although the repaired overlay could not be installed")
			}
			if got := s.Stats().Recompiles; got != 1 {
				t.Fatalf("Recompiles = %d, want the one fallback", got)
			}
			if got := s.Stats().Views; got != 1 {
				t.Fatalf("%d live views after the fallback, want 1", got)
			}
			latest := map[graph.NodeID]int64{0: 4, 1: 7, 2: 9, 3: 3, 4: 1, 5: 6, 6: 5}
			for v := graph.NodeID(0); v < 7; v++ {
				var want int64
				for _, u := range g.In(v) {
					want += latest[u]
				}
				if got, err := s.eng.Read(v); err != nil || got.Scalar != want {
					t.Fatalf("read(%d) after the fallback = %v, %v; brute force says %d", v, got, err, want)
				}
			}
		})
	}
}
