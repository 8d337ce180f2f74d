package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/workload"
)

// pairGraph builds n disjoint writer→reader pairs: edge i → i+n, so node i
// writes and node i+n aggregates over it. The attached plan workload is
// write-heavy (writers at 100, readers read at 0.01), which the decision
// procedure provably compiles to all-pull readers.
func pairGraph(t *testing.T, n int) (*core.MultiSystem, *core.System) {
	t.Helper()
	g := graph.NewWithNodes(2 * n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+n)); err != nil {
			t.Fatal(err)
		}
	}
	plan := dataflow.NewWorkload(g.MaxID())
	for i := 0; i < n; i++ {
		plan.Write[i] = 100
		plan.Read[i+n] = 0.01
	}
	m := core.NewMulti(g)
	att, err := m.Attach("pair-sum",
		core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1)},
		core.Options{Algorithm: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	sys := att.System()
	if err := sys.Reoptimize(plan); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if sys.Engine().Covered(graph.NodeID(i + n)) {
			t.Fatalf("reader %d compiled to push under a write-heavy plan", i+n)
		}
	}
	return m, sys
}

// totalFlips sums the frontier flips every system of m has applied.
func totalFlips(m *core.MultiSystem) int64 {
	var n int64
	for _, sys := range m.Systems() {
		n += sys.AdaptivityStats().Flips
	}
	return n
}

// rebalance runs one adaptivity pass over every system of m — what each
// tick of the autotune loop runs.
func rebalance(t *testing.T, m *core.MultiSystem) {
	t.Helper()
	if _, err := m.Rebalance(); err != nil {
		t.Fatal(err)
	}
}

// thinDrift is one pass of a shift spread thin over pairGraph's pairs from
// lo on: each writer writes once and each reader is read 8 times, so a
// reader's window gains 9 observations a pass and fills the adaptor's 64 on
// the 8th.
func thinDrift(t *testing.T, sys *core.System, lo, pairs int) {
	t.Helper()
	for i := lo; i < pairs; i++ {
		if err := sys.Engine().Write(graph.NodeID(i), 1, 1); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			if _, err := sys.Engine().Read(graph.NodeID(i + pairs)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// coveredReaders counts pairGraph's readers that are push-covered.
func coveredReaders(sys *core.System, pairs int) int {
	n := 0
	for i := 0; i < pairs; i++ {
		if sys.Engine().Covered(graph.NodeID(i + pairs)) {
			n++
		}
	}
	return n
}

// TestAutotuneFlipsHotPullReader drives a workload shift the adaptive
// scheme can answer incrementally: the single pull reader of a 0→1 pair
// turns read-hot (256 reads, no writes), which contradicts the write-heavy
// plan at a frontier node. One Rebalance pass must apply the frontier
// flip — the reader becomes push-covered.
func TestAutotuneFlipsHotPullReader(t *testing.T) {
	m, sys := pairGraph(t, 1)
	for i := 0; i < 256; i++ {
		if _, err := sys.Engine().Read(1); err != nil {
			t.Fatal(err)
		}
	}
	rebalance(t, m)
	if !sys.Engine().Covered(1) {
		t.Fatal("hot pull reader was not flipped to push")
	}
	ast := sys.AdaptivityStats()
	if ast.Rebalances < 1 || ast.Flips < 1 {
		t.Fatalf("core adaptivity stats missed the rebalance: %+v", ast)
	}
	if ast.PullObserved < 256 {
		t.Fatalf("PullObserved = %d, want >= 256", ast.PullObserved)
	}
}

// TestAutotuneThinShiftFlipsWhenWindowFills drives a shift spread thin: 200
// write-heavy-planned pairs each see 1 write and 8 reads per pass, so a
// reader's frontier window needs 8 passes to reach the adaptor's 64 samples.
// A pass that flips no node leaves the window open, so the counts carry
// across passes: no flip fires before the window fills, and every hot
// reader turns push on the pass it does.
func TestAutotuneThinShiftFlipsWhenWindowFills(t *testing.T) {
	const pairs, fillPass = 200, 8
	m, sys := pairGraph(t, pairs)
	for pass := 1; pass <= fillPass; pass++ {
		thinDrift(t, sys, 0, pairs)
		rebalance(t, m)
		flips, got := totalFlips(m), coveredReaders(sys, pairs)
		if pass < fillPass && (flips != 0 || got != 0) {
			t.Fatalf("pass %d: %d flips, %d readers covered before the window filled", pass, flips, got)
		}
		if pass == fillPass && (flips != pairs || got != pairs) {
			t.Fatalf("pass %d: %d flips, %d of %d readers covered once the window filled", pass, flips, got, pairs)
		}
	}
}

// TestManualRebalanceKeepsPartialWindows: a Rebalance called by hand in the
// middle of the thin drift is the same pass the autotune loop runs, so it
// flips nothing and the partial windows survive it — the loop's pass that
// fills them still flips every hot reader.
func TestManualRebalanceKeepsPartialWindows(t *testing.T) {
	const pairs, fillPass = 200, 8
	m, sys := pairGraph(t, pairs)
	for pass := 1; pass <= fillPass; pass++ {
		thinDrift(t, sys, 0, pairs)
		if pass == fillPass-1 {
			if flips, err := sys.Rebalance(); err != nil || flips != 0 {
				t.Fatalf("manual Rebalance at pass %d: %d flips, %v", pass, flips, err)
			}
		}
		rebalance(t, m)
	}
	if flips, got := totalFlips(m), coveredReaders(sys, pairs); flips != pairs || got != pairs {
		t.Fatalf("pass %d: %d flips, %d of %d readers covered after a manual Rebalance at pass %d",
			fillPass, flips, got, pairs, fillPass-1)
	}
}

// TestRebalanceJudgesThinBesideHot: a window restarts only on a pass that
// flipped, so a pair whose agreeing traffic fills its window every pass
// does not keep the thin drift beside it from filling. Pair 0 sees 100
// writes and 1 read a pass, which its pull reader agrees with; the other
// 200 pairs see the thin drift, and every one of their readers must turn
// push on the pass their windows fill.
func TestRebalanceJudgesThinBesideHot(t *testing.T) {
	const pairs, fillPass = 201, 8
	m, sys := pairGraph(t, pairs)
	for pass := 1; pass <= fillPass; pass++ {
		for i := 0; i < 100; i++ {
			if err := sys.Engine().Write(0, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Engine().Read(pairs); err != nil {
			t.Fatal(err)
		}
		thinDrift(t, sys, 1, pairs)
		rebalance(t, m)
		if flips := totalFlips(m); pass < fillPass && flips != 0 {
			t.Fatalf("pass %d: %d flips before the thin windows filled", pass, flips)
		}
	}
	if sys.Engine().Covered(graph.NodeID(pairs)) {
		t.Fatal("the agreeing hot pair's pull reader flipped to push")
	}
	if flips, got := totalFlips(m), coveredReaders(sys, pairs); flips != pairs-1 || got != pairs-1 {
		t.Fatalf("pass %d: %d flips, %d of %d thin readers covered beside a hot agreeing pair",
			fillPass, flips, got, pairs-1)
	}
}

// viewPair attaches two overlapping views of one merge family over the
// SocialGraph(200, 6, 1) fixture: view A reads nodes < 100 and view B nodes
// < 150, both sum over a one-tuple window built by VNM_A.
func viewPair(t *testing.T, continuous bool, mode core.Mode) (m *core.MultiSystem, a, b *core.Attachment) {
	t.Helper()
	m = core.NewMulti(workload.SocialGraph(200, 6, 1))
	attach := func(i, hi int) *core.Attachment {
		pred := func(_ *graph.Graph, v graph.NodeID) bool { return int(v) < hi }
		att, err := m.AttachMerged(fmt.Sprintf("view-q%d", i), "fam",
			core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1), Predicate: pred, Continuous: continuous},
			core.Options{Algorithm: construct.AlgVNMA, Mode: mode, Construct: construct.Config{Iterations: 3}})
		if err != nil {
			t.Fatal(err)
		}
		return att
	}
	a, b = attach(0, 100), attach(1, 150)
	if a.System() != b.System() {
		t.Fatal("family members did not merge into one system")
	}
	return m, a, b
}

// readView reads every node below hi through att, reps times.
func readView(t *testing.T, att *core.Attachment, hi, reps int) {
	t.Helper()
	for r := 0; r < reps; r++ {
		for v := graph.NodeID(0); int(v) < hi; v++ {
			if _, err := att.Read(v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// coveredWithInputs counts att's push-covered readers below hi that have an
// input; a reader without one is push for free under any workload.
func coveredWithInputs(att *core.Attachment, g *graph.Graph, hi int) int {
	n := 0
	for v := graph.NodeID(0); int(v) < hi; v++ {
		if len(g.In(v)) > 0 && att.Covered(v) {
			n++
		}
	}
	return n
}

// TestAutotuneColdViewPricedPerReader: reads are sampled per reader, so in
// a dataflow-mode merged family of two overlapping views the cost model
// alone prices each view. With writes everywhere and only view A read, A's
// readers go push while B's — at the same data-graph nodes — stay pull;
// reading B instead brings its coverage back. No per-view rule is involved:
// every change is a frontier flip.
func TestAutotuneColdViewPricedPerReader(t *testing.T) {
	m, a, b := viewPair(t, false, core.ModeDataflow)
	g := m.Graph()
	var writes []graph.Event
	for v := 0; v < g.MaxID(); v++ {
		writes = append(writes, graph.Event{Kind: graph.ContentWrite, Node: graph.NodeID(v), Value: int64(v), TS: 1})
	}
	// phase writes every node and reads one view hot for three passes, and
	// returns how many decisions the passes changed meanwhile.
	phase := func(read *core.Attachment, hi int) int64 {
		before := totalFlips(m)
		for round := 0; round < 3; round++ {
			for k := 0; k < 4; k++ {
				if _, err := m.Apply(writes, graph.NoAdvance); err != nil {
					t.Fatal(err)
				}
			}
			readView(t, read, hi, 80)
			rebalance(t, m)
		}
		return totalFlips(m) - before
	}
	a0 := coveredWithInputs(a, g, 100)
	changed := phase(a, 100)
	a1, b1 := coveredWithInputs(a, g, 100), coveredWithInputs(b, g, 150)
	t.Logf("A hot: A %d -> %d/100 covered, B %d/150, %d decisions changed", a0, a1, b1, changed)
	if changed == 0 || a1 <= a0 {
		t.Fatalf("the hot view gained no coverage (A %d -> %d, %d decisions changed)", a0, a1, changed)
	}
	if b1 != 0 {
		t.Fatalf("the cold view at the hot view's nodes is push at %d readers: its reads were folded onto A's", b1)
	}
	changed = phase(b, 150)
	b2 := coveredWithInputs(b, g, 150)
	t.Logf("B hot: B %d -> %d/150 covered, %d decisions changed", b1, b2, changed)
	if changed == 0 || b2 == 0 {
		t.Fatalf("the reheated view regained no coverage (B %d, %d decisions changed)", b2, changed)
	}
}

// TestAutotuneControllerStress races back-to-back Rebalance passes (the
// autotune loop's work: draining observations and frontier flips) against
// concurrent batched writes, reads, structural edge churn, and merged-family
// attach/detach. The merged family compiles in dataflow mode, so the passes
// change its decisions while members come and go. Run under -race in CI.
func TestAutotuneControllerStress(t *testing.T) {
	g := workload.SocialGraph(400, 6, 1)
	m := core.NewMulti(g)
	plan := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 1)
	att, err := m.Attach("stress-sum",
		core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1)},
		core.Options{Algorithm: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := att.System().Reoptimize(plan); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		lo := i * 200
		pred := func(_ *graph.Graph, v graph.NodeID) bool { return int(v) >= lo && int(v) < lo+250 }
		if _, err := m.AttachMerged(fmt.Sprintf("stress-view%d", i), "stress-fam",
			core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1), Predicate: pred},
			core.Options{Algorithm: construct.AlgVNMA, Construct: construct.Config{Iterations: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	shifted := workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1, 7)
	var writes []graph.Event
	for _, ev := range workload.Events(shifted, 1<<13, 9) {
		if ev.Kind == graph.ContentWrite {
			writes = append(writes, ev)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var passes int
	wg.Add(5)
	go func() { // the autotune loop's passes, back to back
		defer wg.Done()
		for ; ; passes++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Rebalance(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // batched ingestion
		defer wg.Done()
		for i := 0; ; i += 512 {
			select {
			case <-stop:
				return
			default:
			}
			off := i % (len(writes) - 512)
			if _, err := m.Apply(writes[off:off+512], graph.NoAdvance); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // point reads across every system
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, sys := range m.Systems() {
				_, _ = sys.Engine().Read(graph.NodeID(i % 400))
			}
		}
	}()
	go func() { // structural churn: toggle edges absent from the base graph
		defer wg.Done()
		toggle := make([]graph.Event, 1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := graph.NodeID((i*131 + 17) % 400)
			v := graph.NodeID((i*197 + 89) % 400)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			toggle[0] = graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: v}
			if _, err := m.Apply(toggle, graph.NoAdvance); err != nil {
				continue
			}
			toggle[0].Kind = graph.EdgeRemove
			if _, err := m.Apply(toggle, graph.NoAdvance); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // attach/retire merged members while the passes run
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pred := func(_ *graph.Graph, v graph.NodeID) bool { return int(v) < 120 }
			att, err := m.AttachMerged(fmt.Sprintf("stress-churn%d", i), "stress-fam",
				core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1), Predicate: pred},
				core.Options{Algorithm: construct.AlgVNMA, Construct: construct.Config{Iterations: 3}})
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Detach(att); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	if passes == 0 {
		t.Fatal("no Rebalance pass completed")
	}
}

// TestRebalanceDuringNodeAdds: a structural run's node adds grow a
// maintained overlay in place, and only the run's end rebuilds the adaptor
// over it, so a Rebalance pass in between would judge readers the adaptor
// holds no counters for (an index out of range). Passes loop against runs
// of node adds and removes. Run under -race in CI.
func TestRebalanceDuringNodeAdds(t *testing.T) {
	m := core.NewMulti(workload.SocialGraph(200, 6, 1))
	att, err := m.Attach("adds-sum", core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1)},
		core.Options{Algorithm: construct.AlgIOB})
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Rebalance(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var run []graph.Event
	for round := 0; round < 200; round++ {
		for range 8 {
			run = append(run, graph.Event{Kind: graph.NodeAdd})
		}
		added, err := m.Apply(run, graph.NoAdvance)
		if err != nil {
			t.Fatal(err)
		}
		run = run[:0] // the next run removes half of these
		for _, v := range added[:len(added)/2] {
			run = append(run, graph.Event{Kind: graph.NodeRemove, Node: v})
		}
	}
	close(stop)
	<-done
	if !att.System().Stats().Maintainable {
		t.Fatal("the node adds were not maintained in place")
	}
}

// TestAutotuneNeverUncoversContinuousQuery: a continuous query promises its
// subscribers an update on every covering write, which holds only while its
// readers stay push — so no Rebalance pass may move a reader of an
// all-push system, whatever the traffic says and whether or not anyone is
// subscribed yet.
func TestAutotuneNeverUncoversContinuousQuery(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"beside a dataflow twin", neverUncoversBesideTwin},
		{"merged family, subscriber after the ticks", neverUncoversMergedFamily},
		{"all-push merged family under edge churn", allPushInstallsOncePerStructuralBatch},
	} {
		t.Run(row.name, row.run)
	}
}

// neverUncoversBesideTwin: under write-heavy traffic with hardly a read, the
// weight of every reader says "pull" — and the twin compiled as an ordinary
// dataflow query is duly demoted — but no number of Rebalance passes may
// move a reader of the all-push system.
func neverUncoversBesideTwin(t *testing.T) {
	g := workload.SocialGraph(300, 8, 7)
	m := core.NewMulti(g)
	q := core.Query{Aggregate: agg.Sum{}, Window: agg.NewTupleWindow(1)}
	cont := q
	cont.Continuous = true
	contAtt, err := m.Attach("continuous", cont, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compiled read-heavy, so the twin starts as covered as the continuous
	// query and only the observed traffic can change that.
	twinAtt, err := m.Attach("twin", q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := twinAtt.System().Reoptimize(dataflow.Uniform(g.MaxID(), 100, 0.01)); err != nil {
		t.Fatal(err)
	}
	covered := func(a *core.Attachment) int {
		n := 0
		for v := graph.NodeID(0); int(v) < g.MaxID(); v++ {
			if a.Covered(v) {
				n++
			}
		}
		return n
	}
	all := covered(contAtt)
	if all != contAtt.OwnReaders() || covered(twinAtt) != all {
		t.Fatalf("fixture: covered %d continuous / %d twin of %d readers", all, covered(twinAtt), contAtt.OwnReaders())
	}
	sub, err := contAtt.Subscribe(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	defer contAtt.Unsubscribe(sub)

	writes := workload.Events(workload.ZipfWorkload(g.MaxID(), 1.0, 1e6, 1e9, 3), 1<<14, 5)
	for round := 0; round < 6; round++ {
		if _, err := m.Apply(writes, graph.NoAdvance); err != nil {
			t.Fatal(err)
		}
		for v := graph.NodeID(0); v < 8; v++ { // a read here and there
			_, _ = contAtt.Read(v)
			_, _ = twinAtt.Read(v)
		}
		rebalance(t, m)
		if got := covered(contAtt); got != all {
			t.Fatalf("round %d: continuous query covers %d of %d readers", round, got, all)
		}
	}
	if got := covered(twinAtt); got > all/2 {
		t.Fatalf("fixture: the dataflow twin still covers %d of %d readers — the traffic never asked for a demotion", got, all)
	}
	if ast := contAtt.System().AdaptivityStats(); ast.Flips != 0 || ast.PushObserved == 0 {
		t.Fatalf("continuous system: %+v, want observations drained and no flip", ast)
	}
	if len(sub.Updates()) == 0 {
		t.Fatal("the continuous query's subscriber saw no update")
	}
}

// neverUncoversMergedFamily: two continuous queries merged into one family,
// only view A read, nobody subscribed while Rebalance passes run. Coverage
// must not move, so a subscriber attached afterwards to view B sees every
// write into its ego.
func neverUncoversMergedFamily(t *testing.T) {
	m, a, b := viewPair(t, true, "")
	g := m.Graph()
	a0, b0 := coveredWithInputs(a, g, 100), coveredWithInputs(b, g, 150)
	for pass := 0; pass < 3; pass++ {
		readView(t, a, 100, 6)
		rebalance(t, m)
	}
	if a1, b1 := coveredWithInputs(a, g, 100), coveredWithInputs(b, g, 150); a1 != a0 || b1 != b0 {
		t.Fatalf("covered readers moved with no subscriber: A %d -> %d, B %d -> %d", a0, a1, b0, b1)
	}
	const ego = graph.NodeID(50)
	in := g.In(ego)
	if len(in) == 0 {
		t.Fatalf("fixture: node %d has no in-neighbour to write", ego)
	}
	sub, err := b.Subscribe(64, ego)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Unsubscribe(sub)
	const writes = 6
	for i := 1; i <= writes; i++ {
		ev := []graph.Event{{Kind: graph.ContentWrite, Node: in[0], Value: int64(10 * i), TS: int64(i)}}
		if _, err := m.Apply(ev, graph.NoAdvance); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sub.Updates()); got != writes {
		t.Fatalf("subscriber on view B at %d got %d updates for %d writes into its ego", ego, got, writes)
	}
}

// allPushInstallsOncePerStructuralBatch: an all-push merged family with one
// view read and an edge toggled before every Rebalance pass. Each
// structural batch installs the repaired overlay once; a pass that moved a
// reader of the family would add installs of its own.
func allPushInstallsOncePerStructuralBatch(t *testing.T) {
	m, a, _ := viewPair(t, false, core.ModeAllPush)
	g, sys := m.Graph(), a.System()
	u, w := graph.NodeID(3), graph.NodeID(60)
	if g.HasEdge(u, w) {
		t.Fatalf("fixture: edge %d->%d already present", u, w)
	}
	before := sys.AdaptivityStats().Installs
	const batches = 20
	for i := 0; i < batches; i++ {
		readView(t, a, 100, 6)
		kind := graph.EdgeAdd
		if i%2 == 1 {
			kind = graph.EdgeRemove
		}
		if _, err := m.Apply([]graph.Event{{Kind: kind, Node: u, Peer: w}}, graph.NoAdvance); err != nil {
			t.Fatal(err)
		}
		rebalance(t, m)
	}
	if got := sys.AdaptivityStats().Installs - before; got != batches {
		t.Fatalf("%d engine installs for %d structural batches (stats %+v)", got, batches, sys.AdaptivityStats())
	}
}
