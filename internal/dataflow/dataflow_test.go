package dataflow

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// chainOverlay builds writer(0) -> partial -> reader(1).
func chainOverlay(t *testing.T) (*overlay.Overlay, overlay.NodeRef, overlay.NodeRef, overlay.NodeRef) {
	t.Helper()
	ov := overlay.New(1)
	w := ov.AddWriter(0)
	p := ov.AddPartial()
	r := ov.AddReader(0, 1)
	if err := ov.AddEdge(w, p, false); err != nil {
		t.Fatal(err)
	}
	if err := ov.AddEdge(p, r, false); err != nil {
		t.Fatal(err)
	}
	return ov, w, p, r
}

func TestComputeFreqsChain(t *testing.T) {
	ov, w, p, r := chainOverlay(t)
	wl := NewWorkload(2)
	wl.Write[0] = 10
	wl.Read[1] = 3
	f, err := ComputeFreqs(ov, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Push[w] != 10 || f.Push[p] != 10 || f.Push[r] != 10 {
		t.Fatalf("push freqs = %v %v %v, want 10 each", f.Push[w], f.Push[p], f.Push[r])
	}
	if f.Pull[r] != 3 || f.Pull[p] != 3 || f.Pull[w] != 3 {
		t.Fatalf("pull freqs = %v %v %v, want 3 each", f.Pull[w], f.Pull[p], f.Pull[r])
	}
	if f.Deg[w] != 1 || f.Deg[p] != 1 || f.Deg[r] != 1 {
		t.Fatalf("degrees = %v", f.Deg)
	}
}

func TestComputeFreqsFanInFanOut(t *testing.T) {
	ov := overlay.New(4)
	w1, w2 := ov.AddWriter(0), ov.AddWriter(1)
	p := ov.AddPartial()
	r1, r2 := ov.AddReader(0, 2), ov.AddReader(0, 3)
	for _, w := range []overlay.NodeRef{w1, w2} {
		if err := ov.AddEdge(w, p, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []overlay.NodeRef{r1, r2} {
		if err := ov.AddEdge(p, r, false); err != nil {
			t.Fatal(err)
		}
	}
	wl := NewWorkload(4)
	wl.Write[0], wl.Write[1] = 5, 7
	wl.Read[2], wl.Read[3] = 2, 9
	f, err := Frequencies(ov.Flatten(), wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Push[p] != 12 {
		t.Fatalf("push(p) = %v, want 12", f.Push[p])
	}
	if f.Pull[p] != 11 {
		t.Fatalf("pull(p) = %v, want 11", f.Pull[p])
	}
	if f.Deg[w1] != 3 { // window size
		t.Fatalf("writer deg = %d, want window size 3", f.Deg[w1])
	}
	if f.Deg[p] != 2 {
		t.Fatalf("deg(p) = %d, want 2", f.Deg[p])
	}
}

func TestDecideWriteHeavyGoesPull(t *testing.T) {
	ov, _, p, r := chainOverlay(t)
	wl := NewWorkload(2)
	wl.Write[0] = 100
	wl.Read[1] = 1
	top := ov.Flatten()
	f, _ := Frequencies(top, wl, 1)
	top, _ = Partition(top, f, ConstLinear{})
	if top.Dec[p] != overlay.Pull || top.Dec[r] != overlay.Pull {
		t.Fatalf("write-heavy: p=%v r=%v, want pull/pull", top.Dec[p], top.Dec[r])
	}
	if err := top.CheckDecisions(); err != nil {
		t.Fatal(err)
	}
}

func TestDecideReadHeavyGoesPush(t *testing.T) {
	ov, _, p, r := chainOverlay(t)
	wl := NewWorkload(2)
	wl.Write[0] = 1
	wl.Read[1] = 100
	f, _ := ComputeFreqs(ov, wl, 1)
	if _, err := Decide(ov, f, ConstLinear{}); err != nil {
		t.Fatal(err)
	}
	if ov.Node(p).Dec != overlay.Push || ov.Node(r).Dec != overlay.Push {
		t.Fatalf("read-heavy: p=%v r=%v, want push/push", ov.Node(p).Dec, ov.Node(r).Dec)
	}
	if err := ov.Flatten().CheckDecisions(); err != nil {
		t.Fatal(err)
	}
}

// The Figure 5 conflict in miniature: an intermediate node prefers pull in
// isolation but its high-fan-in consumer strongly prefers push; the min-cut
// must resolve the conflict globally.
func TestDecideResolvesConflict(t *testing.T) {
	ov := overlay.New(0)
	// i3: one writer input with moderate writes; s_r: high in-degree
	// reader fed by i3 and many writers.
	wMain := ov.AddWriter(0)
	i3 := ov.AddPartial()
	if err := ov.AddEdge(wMain, i3, false); err != nil {
		t.Fatal(err)
	}
	s := ov.AddReader(0, 100)
	if err := ov.AddEdge(i3, s, false); err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(101)
	wl.Write[0] = 10 // i3: PUSH = 10, PULL = 2*1 ... reads on s = 2
	wl.Read[100] = 2
	const extra = 59
	for i := 1; i <= extra; i++ {
		w := ov.AddWriter(graph.NodeID(i))
		if err := ov.AddEdge(w, s, false); err != nil {
			t.Fatal(err)
		}
		wl.Write[i] = 1
	}
	// s: in-degree 60. PUSH(s) = (10 + 59)·1 = 69; PULL(s) = 2·60 = 120
	// → prefers push. i3: PUSH = 10, PULL = 2·1 = 2 → prefers pull. A
	// pull i3 forces pull s: total 2 + 120 = 122. All push: 10 + 69 =
	// 79. Optimal: push both.
	top := ov.Flatten()
	f, err := Frequencies(top, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	decided, st := Partition(top, f, ConstLinear{})
	if decided.Dec[i3] != overlay.Push || decided.Dec[s] != overlay.Push {
		t.Fatalf("conflict resolved wrong: i3=%v s=%v, want push/push",
			decided.Dec[i3], decided.Dec[s])
	}
	if top.Dec[i3] != overlay.Pull || top.Dec[s] != overlay.Pull {
		t.Fatal("Partition changed the decisions of the Topology it was given")
	}
	if st.NodesBefore == 0 || st.NodesAfter > st.NodesBefore {
		t.Fatalf("prune stats inconsistent: %+v", st)
	}
}

// Property: on random small overlays, Decide matches exhaustive search over
// all consistent (X,Y) partitions.
func TestDecideOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		ov, refs := randomOverlay(rng)
		wl := NewWorkload(64)
		for i := range wl.Read {
			wl.Read[i] = float64(rng.Intn(20))
			wl.Write[i] = float64(rng.Intn(20))
		}
		top := ov.Flatten()
		f, err := Frequencies(top, wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := ConstLinear{}
		top, _ = Partition(top, f, m)
		if err := top.CheckDecisions(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, ov.DebugString())
		}
		got := TotalCost(top, f, m)
		want := bruteForceOptimal(top, refs, f, m)
		if got > want+1e-6 {
			t.Fatalf("trial %d: Decide cost %.3f > optimal %.3f\n%s",
				trial, got, want, ov.DebugString())
		}
	}
}

// randomOverlay generates a small random DAG-shaped overlay.
func randomOverlay(rng *rand.Rand) (*overlay.Overlay, []overlay.NodeRef) {
	ov := overlay.New(0)
	nw := 2 + rng.Intn(3)
	np := 1 + rng.Intn(3)
	nr := 2 + rng.Intn(3)
	var refs []overlay.NodeRef
	var writers, partials, readers []overlay.NodeRef
	for i := 0; i < nw; i++ {
		w := ov.AddWriter(graph.NodeID(i))
		writers = append(writers, w)
		refs = append(refs, w)
	}
	for i := 0; i < np; i++ {
		p := ov.AddPartial()
		partials = append(partials, p)
		refs = append(refs, p)
	}
	for i := 0; i < nr; i++ {
		r := ov.AddReader(0, graph.NodeID(32+i))
		readers = append(readers, r)
		refs = append(refs, r)
	}
	// Wire writers to partials/readers and partials to later partials or
	// readers, keeping the graph acyclic.
	for _, w := range writers {
		for k := 0; k < 1+rng.Intn(2); k++ {
			var dst overlay.NodeRef
			if rng.Intn(2) == 0 {
				dst = partials[rng.Intn(np)]
			} else {
				dst = readers[rng.Intn(nr)]
			}
			if !ov.HasEdge(w, dst) {
				_ = ov.AddEdge(w, dst, false)
			}
		}
	}
	for i, p := range partials {
		if len(ov.Node(p).In) == 0 {
			_ = ov.AddEdge(writers[rng.Intn(nw)], p, false)
		}
		var dst overlay.NodeRef
		if i+1 < np && rng.Intn(2) == 0 {
			dst = partials[i+1+rng.Intn(np-i-1)]
		} else {
			dst = readers[rng.Intn(nr)]
		}
		if !ov.HasEdge(p, dst) {
			_ = ov.AddEdge(p, dst, false)
		}
	}
	for _, r := range readers {
		if len(ov.Node(r).In) == 0 {
			_ = ov.AddEdge(writers[rng.Intn(nw)], r, false)
		}
	}
	return ov, refs
}

// bruteForceOptimal enumerates all consistent decision assignments.
func bruteForceOptimal(top *overlay.Topology, refs []overlay.NodeRef, f *Freqs, m CostModel) float64 {
	n := len(refs)
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		pushSet := make(map[overlay.NodeRef]bool, n)
		for i, ref := range refs {
			if mask&(1<<i) != 0 {
				pushSet[ref] = true
			}
		}
		valid := true
		cost := 0.0
		for _, ref := range refs {
			// Writers are always push (§2.2.1).
			if top.Kind[ref] == overlay.WriterNode && !pushSet[ref] {
				valid = false
				break
			}
			if pushSet[ref] {
				for _, pe := range top.InEdges(ref) {
					if peer, _ := overlay.UnpackRef(pe); !pushSet[peer] {
						valid = false
						break
					}
				}
				cost += f.PushCost(ref, m)
			} else {
				cost += f.PullCost(ref, m)
			}
			if !valid {
				break
			}
		}
		if valid && cost < best {
			best = cost
		}
	}
	return best
}

func TestSplitNodesHoistsColdInputs(t *testing.T) {
	// Figure 7: aggregator with four cold inputs and one hot input.
	ov := overlay.New(5)
	var ws []overlay.NodeRef
	wl := NewWorkload(10)
	for i := 0; i < 5; i++ {
		w := ov.AddWriter(graph.NodeID(i))
		ws = append(ws, w)
		wl.Write[i] = 1 // cold
	}
	hot := ov.AddWriter(5)
	wl.Write[5] = 100 // hot
	r := ov.AddReader(0, 6)
	wl.Read[6] = 15
	i1 := ov.AddPartial()
	for _, w := range ws {
		if err := ov.AddEdge(w, i1, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := ov.AddEdge(hot, i1, false); err != nil {
		t.Fatal(err)
	}
	if err := ov.AddEdge(i1, r, false); err != nil {
		t.Fatal(err)
	}
	f, err := Frequencies(ov.Flatten(), wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := SplitNodes(ov, f, ConstLinear{})
	if err != nil {
		t.Fatal(err)
	}
	if splits != 1 {
		t.Fatalf("splits = %d, want 1", splits)
	}
	// i1 now has two inputs: the new partial (cold block) and hot.
	if got := len(ov.Node(i1).In); got != 2 {
		t.Fatalf("i1 in-degree = %d, want 2\n%s", got, ov.DebugString())
	}
	// The aggregate set served to the reader is unchanged.
	in := ov.InputSet(r)
	if len(in) != 6 {
		t.Fatalf("reader aggregates %v, want all 6 writers", in)
	}
	for w, c := range in {
		if c != 1 {
			t.Fatalf("writer %d multiplicity %d", w, c)
		}
	}
}

func TestSplitNodesNoSplitWhenUniform(t *testing.T) {
	ov := overlay.New(3)
	p := ov.AddPartial()
	wl := NewWorkload(10)
	for i := 0; i < 3; i++ {
		w := ov.AddWriter(graph.NodeID(i))
		wl.Write[i] = 5
		if err := ov.AddEdge(w, p, false); err != nil {
			t.Fatal(err)
		}
	}
	r := ov.AddReader(0, 5)
	wl.Read[5] = 5
	if err := ov.AddEdge(p, r, false); err != nil {
		t.Fatal(err)
	}
	f, _ := Frequencies(ov.Flatten(), wl, 1)
	splits, err := SplitNodes(ov, f, ConstLinear{})
	if err != nil {
		t.Fatal(err)
	}
	if splits != 0 {
		t.Fatalf("splits = %d, want 0 for uniform inputs", splits)
	}
}

func TestAdaptorFlipsFrontier(t *testing.T) {
	ov, _, p, r := chainOverlay(t)
	wl := NewWorkload(2)
	wl.Write[0] = 100
	wl.Read[1] = 1
	top := ov.Flatten()
	f, _ := Frequencies(top, wl, 1)
	m := ConstLinear{}
	top, _ = Partition(top, f, m)
	if top.Dec[p] != overlay.Pull {
		t.Fatalf("setup: p should start pull")
	}
	a := NewAdaptor(top, m)
	// Workload shifts: p now sees many pulls and few pushes, 72 samples in
	// all, past the window's 64.
	a.ObserveBatch(slotCounts(top, p, 2), slotCounts(top, p, 70))
	next, flips := a.Rebalance()
	if flips != 1 {
		t.Fatalf("flips = %d, want 1", flips)
	}
	if next.Dec[p] != overlay.Push || top.Dec[p] != overlay.Pull {
		t.Fatalf("p = %v after rebalance (%v in the judged Topology), want push (pull)", next.Dec[p], top.Dec[p])
	}
	if next.Lineage() != top.Lineage() || &next.In[0] != &top.In[0] {
		t.Fatal("the flipped Topology left the judged one's lineage or edges")
	}
	if err := next.CheckDecisions(); err != nil {
		t.Fatal(err)
	}
	_ = r
}

// slotCounts is a per-slot observation array for top with c at ref.
func slotCounts(top *overlay.Topology, ref overlay.NodeRef, c float64) []float64 {
	counts := make([]float64, top.N)
	counts[ref] = c
	return counts
}

func TestAdaptorRespectsMinSamples(t *testing.T) {
	ov, _, p, _ := chainOverlay(t)
	wl := NewWorkload(2)
	wl.Write[0] = 100
	wl.Read[1] = 1
	top := ov.Flatten()
	f, _ := Frequencies(top, wl, 1)
	m := ConstLinear{}
	top, _ = Partition(top, f, m)
	a := NewAdaptor(top, m)
	a.ObserveBatch(nil, slotCounts(top, p, 50)) // below the window's 64 samples
	if _, flips := a.Rebalance(); flips != 0 {
		t.Fatalf("flips = %d below minSamples, want 0", flips)
	}
}

func TestAdaptorOnlyFlipsFrontierNodes(t *testing.T) {
	// w -> p1 -> p2 -> r, all pull (except writer). p2's input p1 is not
	// push, so p2 is NOT a pull-frontier node; only p1 is.
	ov := overlay.New(1)
	w := ov.AddWriter(0)
	p1, p2 := ov.AddPartial(), ov.AddPartial()
	r := ov.AddReader(0, 1)
	_ = ov.AddEdge(w, p1, false)
	_ = ov.AddEdge(p1, p2, false)
	_ = ov.AddEdge(p2, r, false)
	top := DecideAll(ov.Flatten(), overlay.Pull)
	a := NewAdaptor(top, ConstLinear{})
	a.ObserveBatch(nil, slotCounts(top, p2, 100)) // a full window
	if _, flips := a.Rebalance(); flips != 0 {
		t.Fatalf("p2 flipped despite pull input p1: %d flips", flips)
	}
}

func TestCostModels(t *testing.T) {
	cl := ConstLinear{}
	if cl.PushCost(100) != 1 {
		t.Fatalf("ConstLinear push = %v", cl.PushCost(100))
	}
	if cl.PullCost(7) != 7 {
		t.Fatalf("ConstLinear pull(7) = %v", cl.PullCost(7))
	}
	ll := LogLinear{}
	if got := ll.PushCost(8); math.Abs(got-4) > 1e-9 { // 1 + log2(8)
		t.Fatalf("LogLinear push(8) = %v, want 4", got)
	}
	wlm := WeightedLinear{}
	if wlm.PushCost(5) != 4 || wlm.PullCost(5) != 20 {
		t.Fatalf("WeightedLinear push(5), pull(5) = %v, %v, want 4, 20", wlm.PushCost(5), wlm.PullCost(5))
	}
	sc := Scaled{Base: cl, PushFactor: 3, PullFactor: 2}
	if sc.PushCost(1) != 3 || sc.PullCost(2) != 4 {
		t.Fatalf("Scaled costs wrong: %v %v", sc.PushCost(1), sc.PullCost(2))
	}
}

func TestModelFor(t *testing.T) {
	if _, ok := ModelFor(agg.Sum{}).(ConstLinear); !ok {
		t.Fatal("sum should map to ConstLinear")
	}
	if _, ok := ModelFor(agg.Max{}).(LogLinear); !ok {
		t.Fatal("max should map to LogLinear")
	}
	if _, ok := ModelFor(agg.TopK{K: 3}).(WeightedLinear); !ok {
		t.Fatal("topk should map to WeightedLinear")
	}
}

func TestDecideAllBaselines(t *testing.T) {
	ov, w, p, r := chainOverlay(t)
	top := DecideAll(ov.Flatten(), overlay.Pull)
	if top.Dec[w] != overlay.Push {
		t.Fatal("writer must stay push in all-pull")
	}
	if top.Dec[p] != overlay.Pull || top.Dec[r] != overlay.Pull {
		t.Fatal("all-pull not applied")
	}
	if err := top.CheckDecisions(); err != nil {
		t.Fatal(err)
	}
	top = DecideAll(top, overlay.Push)
	if top.Dec[p] != overlay.Push || top.Dec[r] != overlay.Push {
		t.Fatal("all-push not applied")
	}
	if err := top.CheckDecisions(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneStatsComponents(t *testing.T) {
	// Two independent conflict chains must yield >= 2 components or be
	// fully pruned; either way stats stay consistent.
	ov := overlay.New(0)
	wl := NewWorkload(64)
	for c := 0; c < 2; c++ {
		w := ov.AddWriter(graph.NodeID(c * 10))
		p := ov.AddPartial()
		r := ov.AddReader(0, graph.NodeID(c*10+1))
		_ = ov.AddEdge(w, p, false)
		_ = ov.AddEdge(p, r, false)
		wl.Write[c*10] = 10
		wl.Read[c*10+1] = 10
	}
	top := ov.Flatten()
	f, _ := Frequencies(top, wl, 1)
	top, st := Partition(top, f, ConstLinear{})
	if st.NodesAfter != st.GraphNodesAfter+st.VirtualNodesAfter {
		t.Fatalf("stats don't add up: %+v", st)
	}
	if st.LargestComponent > st.NodesAfter {
		t.Fatalf("largest component %d > survivors %d", st.LargestComponent, st.NodesAfter)
	}
	if err := top.CheckDecisions(); err != nil {
		t.Fatal(err)
	}
}
