package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// zipfFixture compiles a over the benchmark's web graph under the default
// uniform 1:1 estimate and returns it with a replay function: window k of a
// fixed Zipf workload (independently skewed reads and writes, so the
// estimate is wrong at most nodes), 40k operations a window.
func zipfFixture(t *testing.T, a agg.Aggregate, opts Options) (*System, func(window int)) {
	t.Helper()
	g := workload.WebGraph(600, 50, 12, 1)
	s, err := Compile(g, Query{Aggregate: a}, opts)
	if err != nil {
		t.Fatal(err)
	}
	wl := dataflow.NewWorkload(g.MaxID())
	copy(wl.Write, workload.ZipfWeights(g.MaxID(), 1, 1, 11))
	copy(wl.Read, workload.ZipfWeights(g.MaxID(), 1, 1, 12))
	return s, func(window int) {
		t.Helper()
		for _, ev := range workload.Events(wl, 40000, int64(100+window)) {
			var err error
			if ev.Kind == graph.ContentWrite {
				err = s.Engine().Write(ev.Node, ev.Value, ev.TS)
			} else {
				_, err = s.eng.Read(ev.Node)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// repairedIOBFixture is zipfFixture for sum under IOB, after 38 single-edge
// additions each repaired in place — the overlay and the adaptor §4.8 then
// runs on are the ones incremental maintenance (afterMaintenance) left.
func repairedIOBFixture(t *testing.T) (*System, func(window int)) {
	t.Helper()
	s, replay := zipfFixture(t, agg.Sum{}, Options{Algorithm: construct.AlgIOB})
	for i := 0; i < 40; i++ {
		u, v := graph.NodeID(37*i%600), graph.NodeID((91*i+5)%600)
		if u == v || s.g.HasEdge(u, v) {
			continue
		}
		if err := s.AddGraphEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.recompiles.Load(); n != 0 {
		t.Fatalf("fixture: %d recompiles, the edge additions were meant to repair in place", n)
	}
	return s, replay
}

// rebalanceRounds replays the fixture's first len windows, each followed by
// a Rebalance, and returns the flips per round.
func rebalanceRounds(t *testing.T, s *System, replay func(int), rounds int) []int {
	t.Helper()
	var flips []int
	for window := 0; window < rounds; window++ {
		replay(window)
		n, err := s.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		flips = append(flips, n)
	}
	return flips
}

// TestRebalanceConverges: under a stationary workload the §4.8 scheme must
// settle. It used to ratchet: a pull frontier node never saw a push counted
// (the engine counts pushes inside push closures only), so 64 reads flipped
// it to push whatever its inputs' write rate, a push reader could never flip
// back, and each round's flips exposed the next layer to the same mistake.
//
// The flip sequences are goldens: the §4.8 decisions on a compiled overlay
// (VNM_N, the adaptor built at adopt) and on an incrementally repaired one
// (IOB, the adaptor rebuilt by afterMaintenance) are pinned exactly, so a
// change to how the adaptor is built cannot move a decision unnoticed.
func TestRebalanceConverges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fixture func(*testing.T) (*System, func(int))
		want    []int
	}{
		{"compiled", func(t *testing.T) (*System, func(int)) { return zipfFixture(t, agg.Sum{}, Options{}) },
			[]int{62, 8, 3, 1, 5, 6}},
		{"repaired", repairedIOBFixture, []int{113, 26, 14, 7, 11, 15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, replay := tc.fixture(t)
			flips := rebalanceRounds(t, s, replay, 6)
			t.Logf("flips per round: %v", flips)
			for round := 3; round < len(flips); round++ {
				if 100*flips[round] > 15*flips[0] {
					t.Fatalf("round %d still flips %d nodes, more than 15%% of the first round's %d: %v",
						round+1, flips[round], flips[0], flips)
				}
			}
			if !slices.Equal(flips, tc.want) {
				t.Fatalf("flips per round %v, want %v", flips, tc.want)
			}
		})
	}
}

// decisionSignature condenses an overlay's structure and decisions into one
// hash: every live node's kind, GID and decision in ref order, and its input
// list in stored order — the order the engine folds inputs in.
func decisionSignature(ov *overlay.Overlay) string {
	h := fnv.New64a()
	push := 0
	ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		fmt.Fprintf(h, "n%d:%d:%d:%d<", ref, n.Kind, n.GID, n.Dec)
		for _, e := range n.In {
			fmt.Fprintf(h, "%d:%t,", e.Peer, e.Negative)
		}
		if n.Kind != overlay.WriterNode && n.Dec == overlay.Push {
			push++
		}
	})
	return fmt.Sprintf("%d nodes %d edges %d push non-writers %016x", ov.NumNodes(), ov.NumEdges(), push, h.Sum64())
}

// TestRepairDeterministic: equal structural streams must give equal
// overlays and equal decisions. Incremental repair used to add direct
// writer edges in map order, so one sequence of edge additions left the
// same node and edge sets with different in-list orders, and §4.8 then
// flipped a different set of nodes run to run.
func TestRepairDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 6; run++ {
		s, replay := repairedIOBFixture(t)
		repaired := decisionSignature(s.Overlay())
		flips := rebalanceRounds(t, s, replay, 6)
		sig := fmt.Sprintf("repaired %s; flips %v; rebalanced %s", repaired, flips, decisionSignature(s.Overlay()))
		if run == 0 {
			first = sig
			continue
		}
		if sig != first {
			t.Fatalf("run %d diverged from run 0:\n  %s\n  %s", run, sig, first)
		}
	}
}

// TestRebalanceNeverRaisesObservedCost: the frequencies a window observed —
// writes per writer, reads per reader, propagated through the overlay — are
// the §4.3 objective the window's flips are supposed to improve. Every
// Rebalance must leave dataflow.TotalCost under them no higher than it
// found it. The flips per window are pinned as goldens too.
func TestRebalanceNeverRaisesObservedCost(t *testing.T) {
	// SUM runs the scalar engine over VNM_N's negative edges, MAX the PAO
	// engine over VNM_D's duplicate paths with a logarithmic push cost.
	for _, tc := range []struct {
		a    agg.Aggregate
		want []int
	}{
		{agg.Sum{}, []int{62, 8, 3, 1, 5, 6, 5, 3}},
		{agg.Max{}, []int{63, 12, 9, 7, 10, 9, 8, 9}},
	} {
		t.Run(tc.a.Name(), func(t *testing.T) {
			if flips := neverRaisesObservedCost(t, tc.a); !slices.Equal(flips, tc.want) {
				t.Fatalf("flips per window %v, want %v", flips, tc.want)
			}
		})
	}
}

func neverRaisesObservedCost(t *testing.T, a agg.Aggregate) []int {
	s, replay := zipfFixture(t, a, Options{})
	var all []int
	for window := 0; window < 8; window++ {
		replay(window)
		f, err := dataflow.ComputeFreqs(s.ov, drainWorkload(s), s.windowSizeHint())
		if err != nil {
			t.Fatal(err)
		}
		before := dataflow.TotalCost(s.ov, f, s.cost)
		flips, err := s.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		after := dataflow.TotalCost(s.ov, f, s.cost)
		t.Logf("window %d: %d flips, observed cost %.0f -> %.0f", window, flips, before, after)
		if after > before*(1+1e-9) {
			t.Fatalf("window %d: %d flips raised the cost under the observed frequencies %.0f -> %.0f",
				window, flips, before, after)
		}
		if window == 0 && (flips == 0 || after >= before) {
			t.Fatalf("fixture: the first window's %d flips did not lower the cost (%.0f -> %.0f)", flips, before, after)
		}
		all = append(all, flips)
	}
	return all
}

// drainWorkload drains s's observation window into its adaptor, as
// Rebalance does first (the Rebalance that follows drains an empty one), and
// returns the window as a workload: writes per
// writer node and reads per reader node. Every read bumps its reader's pull
// counter exactly once whether the reader is push or pull (interior pulls
// land on partials and writers, skipped here), so reader pulls are read
// rates. s runs one view, so a reader's node names it.
func drainWorkload(s *System) *dataflow.Workload {
	s.mu.Lock()
	defer s.mu.Unlock()
	pushes, pulls := s.drainObservationsLocked()
	wl := dataflow.NewWorkload(s.g.MaxID())
	for ref, c := range pushes {
		if n := s.ov.Node(ref); s.ov.Alive(ref) && n.Kind == overlay.WriterNode {
			wl.Write[n.GID] += c
		}
	}
	for ref, c := range pulls {
		if n := s.ov.Node(ref); s.ov.Alive(ref) && n.Kind == overlay.ReaderNode {
			wl.Read[n.GID] += c
		}
	}
	return wl
}

// TestReoptimizeKeepsMode: Reoptimize re-decides with the system's own
// procedure, so a read-heavy workload leaves every reader of an all-pull
// system pull, as its reported mode says.
func TestReoptimizeKeepsMode(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}}, Options{Algorithm: Baseline, Mode: ModeAllPull})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reoptimize(dataflow.Uniform(g.MaxID(), 100, 0.01)); err != nil {
		t.Fatal(err)
	}
	if m := s.Stats().Mode; m != ModeAllPull {
		t.Fatalf("mode after Reoptimize = %s, want %s", m, ModeAllPull)
	}
	ov := s.Overlay()
	for ref := overlay.NodeRef(0); int(ref) < ov.Len(); ref++ {
		if n := ov.Node(ref); ov.Alive(ref) && n.Kind == overlay.ReaderNode && n.Dec != overlay.Pull {
			t.Fatalf("reader %d is %s after Reoptimize, want pull", n.GID, n.Dec)
		}
	}
}

// TestAllPullNeverFlips: a fixed-mode system's decisions are its mode, so
// read-heavy traffic on an all-pull system moves no reader to push — not
// on the first Rebalance and not on the next, to which a window that
// flipped nothing would have carried over — and Stats keeps reporting what
// runs.
func TestAllPullNeverFlips(t *testing.T) {
	g := paperGraph()
	s, err := Compile(g, Query{Aggregate: agg.Sum{}}, Options{Algorithm: Baseline, Mode: ModeAllPull})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"first Rebalance", "second Rebalance"} {
		for v := graph.NodeID(0); int(v) < g.MaxID(); v++ {
			for i := 0; i < 500; i++ {
				if _, err := s.Engine().Read(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		flips, err := s.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		if flips != 0 {
			t.Errorf("%s flipped %d nodes of an all-pull system", pass, flips)
		}
		top := s.Engine().Topology()
		for ref := overlay.NodeRef(0); int(ref) < top.N; ref++ {
			if dec := top.Dec[ref]; !top.Dead[ref] && top.Kind[ref] == overlay.ReaderNode && dec != overlay.Pull {
				t.Fatalf("after %s reader %d is %s, want pull", pass, top.GID[ref], dec)
			}
		}
	}
	if m := s.Stats().Mode; m != ModeAllPull {
		t.Fatalf("mode = %s, want %s", m, ModeAllPull)
	}
	if ast := s.AdaptivityStats(); ast.PullObserved == 0 {
		t.Fatalf("observations not drained into the telemetry: %+v", ast)
	}
}
