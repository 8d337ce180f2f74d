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
// change to how the adaptor is built cannot move a decision unnoticed. So
// is the signature of the decisions installed before round 1, which compile
// and the repairs made, so a change to how decisions are made cannot either.
func TestRebalanceConverges(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fixture   func(*testing.T) (*System, func(int))
		signature string
		want      []int
	}{
		{"compiled", func(t *testing.T) (*System, func(int)) { return zipfFixture(t, agg.Sum{}, Options{}) },
			"1259 nodes 3718 edges 254 push non-writers aaf4fc7bb985124f", []int{62, 8, 3, 1, 5, 6}},
		{"repaired", repairedIOBFixture,
			"1742 nodes 3432 edges 460 push non-writers 0adc54f85697811b", []int{113, 26, 14, 7, 11, 15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, replay := tc.fixture(t)
			if sig := decisionSignature(s.eng.Topology()); sig != tc.signature {
				t.Fatalf("installed decisions before round 1: %s, want %s", sig, tc.signature)
			}
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

// decisionSignature condenses a Topology's structure and decisions into one
// hash: every live slot's kind, GID and decision in slot order, and its
// input list in stored order — the order the engine folds inputs in.
func decisionSignature(top *overlay.Topology) string {
	h := fnv.New64a()
	nodes, push := 0, 0
	for ref := range overlay.NodeRef(top.N) {
		if top.Dead[ref] {
			continue
		}
		nodes++
		fmt.Fprintf(h, "n%d:%d:%d:%d<", ref, top.Kind[ref], top.GID[ref], top.Dec[ref])
		for _, pe := range top.InEdges(ref) {
			peer, neg := overlay.UnpackRef(pe)
			fmt.Fprintf(h, "%d:%t,", peer, neg)
		}
		if top.Kind[ref] != overlay.WriterNode && top.Dec[ref] == overlay.Push {
			push++
		}
	}
	return fmt.Sprintf("%d nodes %d edges %d push non-writers %016x", nodes, len(top.In), push, h.Sum64())
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
		repaired := decisionSignature(s.eng.Topology())
		flips := rebalanceRounds(t, s, replay, 6)
		sig := fmt.Sprintf("repaired %s; flips %v; rebalanced %s", repaired, flips, decisionSignature(s.eng.Topology()))
		if run == 0 {
			first = sig
			continue
		}
		if sig != first {
			t.Fatalf("run %d diverged from run 0:\n  %s\n  %s", run, sig, first)
		}
	}
}

// TestFlipSurvivesRepair: Rebalance and Reoptimize install their decisions
// on the engine's Topology alone, and the next maintained repair starts from
// them. Every slot live on both sides of that repair keeps its re-decided
// decision, or is promoted to push by RepairDecisions, and every read still
// equals a brute-force sum.
func TestFlipSurvivesRepair(t *testing.T) {
	for _, tc := range []struct {
		name     string
		redecide func(s *System, replay func(int)) error
	}{
		{"rebalance", func(s *System, replay func(int)) error {
			replay(0)
			_, err := s.Rebalance()
			return err
		}},
		{"reoptimize", func(s *System, _ func(int)) error {
			return s.Reoptimize(dataflow.Uniform(s.g.MaxID(), 4, 1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, replay := repairedIOBFixture(t)
			if live, _ := holdsLive(s); !live {
				t.Fatal("fixture: the structural runs did not thaw a maintainer")
			}
			decided := s.eng.Topology()
			if err := tc.redecide(s, replay); err != nil {
				t.Fatal(err)
			}
			redecided := s.eng.Topology()
			if slices.Equal(redecided.Dec, decided.Dec) {
				t.Fatal("fixture: no decision changed")
			}
			structuralKeepsDecisions(t, s, decided, redecided)
		})
	}
}

// structuralKeepsDecisions runs a structural run of 30 edge additions and
// removals on s, which must repair in place, and fails unless every slot
// live on both sides keeps its decision in redecided or was promoted to
// push, and every read equals a brute-force in-neighbour sum.
func structuralKeepsDecisions(t *testing.T, s *System, decided, redecided *overlay.Topology) {
	t.Helper()
	var evs []graph.Event
	for i := range 30 {
		u, v := graph.NodeID(53*i%600), graph.NodeID((17*i+301)%600)
		kind := graph.EdgeAdd
		if out := s.g.Out(u); i%3 == 2 && len(out) > 0 {
			kind, v = graph.EdgeRemove, out[0]
		}
		if u != v {
			evs = append(evs, graph.Event{Kind: kind, Node: u, Peer: v})
		}
	}
	if _, err := s.multi.Apply(evs, graph.NoAdvance); err != nil {
		t.Fatal(err)
	}
	if n := s.recompiles.Load(); n != 0 {
		t.Fatalf("the structural run recompiled %d times, want a repair in place", n)
	}
	repaired := s.eng.Topology()
	kept := 0
	for i := range redecided.N {
		if redecided.Dead[i] || i >= repaired.N || repaired.Dead[i] {
			continue
		}
		was, now := redecided.Dec[i], repaired.Dec[i]
		if now != was && (now != overlay.Push || was != overlay.Pull) {
			t.Fatalf("slot %d was %s before the repair and is %s after it", i, was, now)
		}
		if was != decided.Dec[i] {
			kept++
		}
	}
	t.Logf("%d re-decided slots live across the repair", kept)
	if kept == 0 {
		t.Fatal("fixture: no re-decided slot is live on both sides of the repair")
	}
	value := func(v graph.NodeID) int64 { return int64(v)%13 + 1 }
	var writes []graph.Event
	for _, v := range s.g.Nodes() {
		writes = append(writes, graph.Event{Node: v, Value: value(v), TS: 1 << 40})
	}
	if _, err := s.multi.Apply(writes, graph.NoAdvance); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.g.Nodes() {
		want := int64(0)
		for _, u := range s.g.In(v) {
			want += value(u)
		}
		if got, err := s.eng.Read(v); err != nil || got.Scalar != want {
			t.Fatalf("read(%d) = %+v, %v; brute force %d", v, got, err, want)
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
		top := s.eng.Topology()
		f, err := dataflow.Frequencies(top, drainWorkload(s), s.windowSizeHint())
		if err != nil {
			t.Fatal(err)
		}
		before := dataflow.TotalCost(top, f, s.cost)
		flips, err := s.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		after := dataflow.TotalCost(s.eng.Topology(), f, s.cost)
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
	pushes, pulls := s.eng.Observations()
	s.adaptorLocked().ObserveBatch(pushes, pulls)
	top := s.eng.Topology()
	wl := dataflow.NewWorkload(s.g.MaxID())
	for ref := range top.N {
		switch {
		case top.Dead[ref]:
		case top.Kind[ref] == overlay.WriterNode:
			wl.Write[top.GID[ref]] += pushes[ref]
		case top.Kind[ref] == overlay.ReaderNode:
			wl.Read[top.GID[ref]] += pulls[ref]
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
	top := s.Engine().Topology()
	for ref := range overlay.NodeRef(top.N) {
		if !top.Dead[ref] && top.Kind[ref] == overlay.ReaderNode && top.Dec[ref] != overlay.Pull {
			t.Fatalf("reader %d is %s after Reoptimize, want pull", top.GID[ref], top.Dec[ref])
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
