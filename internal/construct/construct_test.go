package construct

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// paperAG is the Figure 1(b) running example.
func paperAG() *bipartite.AG {
	return bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		0: {2, 3, 4, 5},
		1: {3, 4, 5},
		2: {0, 1, 3, 4, 5},
		3: {0, 1, 2, 4, 5},
		4: {0, 1, 2, 3},
		5: {0, 1, 2, 3, 4},
		6: {0, 1, 2, 3, 4, 5},
	})
}

// randomAG generates a bipartite graph with planted bicliques plus noise,
// the structure the miners are supposed to exploit.
func randomAG(rng *rand.Rand, readers, writers, planted int) *bipartite.AG {
	lists := make(map[graph.NodeID][]graph.NodeID)
	// Planted biclique templates.
	templates := make([][]graph.NodeID, planted)
	for t := range templates {
		size := 3 + rng.Intn(5)
		tmpl := make([]graph.NodeID, 0, size)
		seen := map[graph.NodeID]bool{}
		for len(tmpl) < size {
			w := graph.NodeID(rng.Intn(writers))
			if !seen[w] {
				seen[w] = true
				tmpl = append(tmpl, w)
			}
		}
		templates[t] = tmpl
	}
	for r := 0; r < readers; r++ {
		seen := map[graph.NodeID]bool{}
		var in []graph.NodeID
		if planted > 0 && rng.Intn(3) > 0 {
			for _, w := range templates[rng.Intn(planted)] {
				if !seen[w] {
					seen[w] = true
					in = append(in, w)
				}
			}
		}
		extra := rng.Intn(4)
		for i := 0; i < extra; i++ {
			w := graph.NodeID(rng.Intn(writers))
			if !seen[w] {
				seen[w] = true
				in = append(in, w)
			}
		}
		// Reader ids occupy a distinct range above writers.
		lists[graph.NodeID(writers+r)] = in
	}
	return bipartite.FromInputLists(lists)
}

func buildAndValidate(t *testing.T, alg string, ag *bipartite.AG, cfg Config, dupOK bool) *Result {
	t.Helper()
	res, err := Build(alg, ag, cfg)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	if err := res.Overlay.ValidateAgainst(ag, dupOK); err != nil {
		t.Fatalf("%s: invalid overlay: %v", alg, err)
	}
	return res
}

func TestBaselineOverlay(t *testing.T) {
	ag := paperAG()
	ov := Baseline(ag)
	if err := ov.ValidateAgainst(ag, false); err != nil {
		t.Fatal(err)
	}
	if ov.NumEdges() != ag.NumEdges() {
		t.Fatalf("baseline edges = %d, want %d", ov.NumEdges(), ag.NumEdges())
	}
	if si := ov.SharingIndex(); si != 0 {
		t.Fatalf("baseline SI = %v, want 0", si)
	}
	if len(ov.Partials()) != 0 {
		t.Fatal("baseline must have no partial nodes")
	}
}

func TestVNMOnPaperExample(t *testing.T) {
	ag := paperAG()
	res := buildAndValidate(t, AlgVNM, ag, Config{Iterations: 10, ChunkSize: 10}, false)
	if si := res.Overlay.SharingIndex(); si <= 0 {
		t.Fatalf("VNM found no sharing on the running example (SI=%v)", si)
	}
	if len(res.Overlay.Partials()) == 0 {
		t.Fatal("VNM created no partial aggregation nodes")
	}
}

func TestVNMAOnPaperExample(t *testing.T) {
	ag := paperAG()
	res := buildAndValidate(t, AlgVNMA, ag, Config{Iterations: 10, ChunkSize: 100}, false)
	if si := res.Overlay.SharingIndex(); si <= 0 {
		t.Fatalf("VNMA SI = %v, want > 0", si)
	}
	if len(res.SharingIndexHistory) == 0 {
		t.Fatal("no SI history recorded")
	}
	// History must be nondecreasing: later iterations only remove edges.
	for i := 1; i < len(res.SharingIndexHistory); i++ {
		if res.SharingIndexHistory[i] < res.SharingIndexHistory[i-1]-1e-9 {
			t.Fatalf("SI history decreased: %v", res.SharingIndexHistory)
		}
	}
}

func TestVNMNUsesNegativeEdges(t *testing.T) {
	// Readers sharing a large quasi-biclique, each missing one writer.
	lists := map[graph.NodeID][]graph.NodeID{}
	writers := []graph.NodeID{0, 1, 2, 3, 4, 5}
	for r := 0; r < 8; r++ {
		var in []graph.NodeID
		for i, w := range writers {
			if i == r%6 && r < 6 {
				continue // reader r misses writer r%6
			}
			in = append(in, w)
		}
		lists[graph.NodeID(10+r)] = in
	}
	ag := bipartite.FromInputLists(lists)
	res := buildAndValidate(t, AlgVNMN, ag, Config{Iterations: 10, NegK1: 2, NegK2: 3}, false)
	st := res.Overlay.Flatten().ComputeStats()
	if st.NegEdges == 0 {
		t.Fatal("VNMN produced no negative edges on a quasi-biclique workload")
	}
	plain := buildAndValidate(t, AlgVNMA, ag, Config{Iterations: 10}, false)
	if res.Overlay.SharingIndex() < plain.Overlay.SharingIndex() {
		t.Fatalf("VNMN SI %v < VNMA SI %v",
			res.Overlay.SharingIndex(), plain.Overlay.SharingIndex())
	}
}

func TestVNMDAllowsDuplicatePaths(t *testing.T) {
	ag := paperAG()
	res := buildAndValidate(t, AlgVNMD, ag, Config{Iterations: 10, ChunkSize: 4, OverlapPct: 50}, true)
	if si := res.Overlay.SharingIndex(); si <= 0 {
		t.Fatalf("VNMD SI = %v, want > 0", si)
	}
}

func TestIOBOnPaperExample(t *testing.T) {
	ag := paperAG()
	res := buildAndValidate(t, AlgIOB, ag, Config{Iterations: 5}, false)
	if si := res.Overlay.SharingIndex(); si <= 0 {
		t.Fatalf("IOB SI = %v, want > 0", si)
	}
	if len(res.Overlay.Partials()) == 0 {
		t.Fatal("IOB created no partial aggregators")
	}
}

// The paper's headline construction comparison: IOB finds more compact
// overlays than VNMA (Figure 8) on biclique-rich inputs.
func TestIOBMoreCompactThanVNMA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ag := randomAG(rng, 300, 80, 12)
	iob := buildAndValidate(t, AlgIOB, ag, Config{Iterations: 5}, false)
	vnma := buildAndValidate(t, AlgVNMA, ag, Config{Iterations: 10, ChunkSize: 50}, false)
	if iob.Overlay.SharingIndex() < vnma.Overlay.SharingIndex()-0.02 {
		t.Fatalf("IOB SI %.3f not >= VNMA SI %.3f (paper Fig 8 shape)",
			iob.Overlay.SharingIndex(), vnma.Overlay.SharingIndex())
	}
}

// IOB overlays are deeper than VNMA overlays (Figure 11a).
func TestIOBDeeperThanVNMA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ag := randomAG(rng, 300, 80, 12)
	iob := buildAndValidate(t, AlgIOB, ag, Config{Iterations: 5}, false)
	vnma := buildAndValidate(t, AlgVNMA, ag, Config{Iterations: 10, ChunkSize: 50}, false)
	iobAvg, _ := iob.Overlay.DepthStats()
	vnmaAvg, _ := vnma.Overlay.DepthStats()
	if iobAvg < vnmaAvg-0.3 {
		t.Fatalf("IOB avg depth %.2f much shallower than VNMA %.2f; expected deeper",
			iobAvg, vnmaAvg)
	}
}

func TestAllAlgorithmsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		ag := randomAG(rng, 100+trial*50, 40, 6)
		for _, alg := range []string{AlgVNM, AlgVNMA, AlgVNMN, AlgIOB} {
			res, err := Build(alg, ag, Config{Iterations: 4})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			if err := res.Overlay.ValidateAgainst(ag, false); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
		}
		res, err := Build(AlgVNMD, ag, Config{Iterations: 4})
		if err != nil {
			t.Fatalf("trial %d vnmd: %v", trial, err)
		}
		if err := res.Overlay.ValidateAgainst(ag, true); err != nil {
			t.Fatalf("trial %d vnmd: %v", trial, err)
		}
	}
}

func TestBuildUnknownAlgorithm(t *testing.T) {
	if _, err := Build("nope", paperAG(), Config{}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestEmptyAG(t *testing.T) {
	ag := bipartite.FromInputLists(nil)
	for _, alg := range []string{AlgVNM, AlgVNMA, AlgVNMN, AlgVNMD, AlgIOB} {
		res, err := Build(alg, ag, Config{Iterations: 2})
		if err != nil {
			t.Fatalf("%s on empty AG: %v", alg, err)
		}
		if res.Overlay.NumEdges() != 0 {
			t.Fatalf("%s: edges on empty AG", alg)
		}
	}
}

func TestReadersWithEmptyInputs(t *testing.T) {
	ag := bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		0: {},
		1: {2, 3},
		4: {2, 3},
	})
	for _, alg := range []string{AlgVNMA, AlgIOB} {
		res := buildAndValidate(t, alg, ag, Config{Iterations: 3}, false)
		if res.Overlay.Reader(0, 0) == overlay.NoNode {
			t.Fatalf("%s: empty reader dropped", alg)
		}
	}
}

// --- Maintainer tests (§3.3) ---

func maintainerFor(t *testing.T, ag *bipartite.AG) *Maintainer {
	t.Helper()
	res, err := Build(AlgIOB, ag, Config{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(res.Overlay)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// expectInputs verifies the overlay serves reader r exactly the given set.
func expectInputs(t *testing.T, ov *overlay.Overlay, r graph.NodeID, want []graph.NodeID) {
	t.Helper()
	ref := ov.Reader(0, r)
	if ref == overlay.NoNode {
		t.Fatalf("reader %d missing", r)
	}
	got := ov.InputSet(ref)
	if len(got) != len(want) {
		t.Fatalf("reader %d aggregates %v, want %v\n%s", r, got, want, ov.DebugString())
	}
	for _, w := range want {
		if got[w] != 1 {
			t.Fatalf("reader %d multiplicity of %d = %d, want 1", r, w, got[w])
		}
	}
}

func TestMaintainerAddSmallDelta(t *testing.T) {
	ag := paperAG()
	m := maintainerFor(t, ag)
	// Reader 1 (N={3,4,5}) gains writer 2.
	if err := m.AddReaderInputs(0, 1, []graph.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	expectInputs(t, m.Overlay(), 1, []graph.NodeID{2, 3, 4, 5})
}

func TestMaintainerAddLargeDeltaUsesSharing(t *testing.T) {
	ag := paperAG()
	m := maintainerFor(t, ag)
	before := len(m.Overlay().Partials())
	// Reader 0 (N={2,3,4,5}) gains a brand-new block of writers also
	// granted to reader 1, large enough to trip the cover path.
	blk := []graph.NodeID{20, 21, 22, 23, 24}
	if err := m.AddReaderInputs(0, 0, blk); err != nil {
		t.Fatal(err)
	}
	if err := m.AddReaderInputs(0, 1, blk); err != nil {
		t.Fatal(err)
	}
	expectInputs(t, m.Overlay(), 0, []graph.NodeID{2, 3, 4, 5, 20, 21, 22, 23, 24})
	expectInputs(t, m.Overlay(), 1, []graph.NodeID{3, 4, 5, 20, 21, 22, 23, 24})
	after := len(m.Overlay().Partials())
	if after <= before {
		t.Fatalf("large shared delta should create/reuse partials: %d -> %d", before, after)
	}
}

func TestMaintainerRemoveInputs(t *testing.T) {
	ag := paperAG()
	m := maintainerFor(t, ag)
	// Reader 6 (N = all six writers) loses writers 0 and 1.
	if err := m.RemoveReaderInputs(0, 6, []graph.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}
	expectInputs(t, m.Overlay(), 6, []graph.NodeID{2, 3, 4, 5})
	// The other readers are untouched.
	expectInputs(t, m.Overlay(), 0, []graph.NodeID{2, 3, 4, 5})
	expectInputs(t, m.Overlay(), 4, []graph.NodeID{0, 1, 2, 3})
}

func TestMaintainerRemoveAllInputs(t *testing.T) {
	ag := paperAG()
	m := maintainerFor(t, ag)
	if err := m.RemoveReaderInputs(0, 1, []graph.NodeID{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	expectInputs(t, m.Overlay(), 1, nil)
}

func TestMaintainerRemoveNode(t *testing.T) {
	ag := paperAG()
	m := maintainerFor(t, ag)
	if err := m.RemoveNode(5); err != nil {
		t.Fatal(err)
	}
	// Every reader that aggregated 5 loses it.
	expectInputs(t, m.Overlay(), 0, []graph.NodeID{2, 3, 4})
	expectInputs(t, m.Overlay(), 1, []graph.NodeID{3, 4})
	if m.Overlay().Reader(0, 5) != overlay.NoNode {
		t.Fatal("reader 5 still present")
	}
	if m.Overlay().Writer(5) != overlay.NoNode {
		t.Fatal("writer 5 still present")
	}
}

// Randomized maintenance stress: interleave additions and removals and
// check every reader's aggregate set against a model after each operation.
func TestMaintainerRandomStress(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ag := randomAG(rng, 60, 30, 5)
	m := maintainerFor(t, ag)
	model := map[graph.NodeID]map[graph.NodeID]bool{}
	for _, r := range ag.Readers {
		set := map[graph.NodeID]bool{}
		for _, w := range r.Inputs {
			set[w] = true
		}
		model[r.Node] = set
	}
	readers := make([]graph.NodeID, 0, len(model))
	for r := range model {
		readers = append(readers, r)
	}
	for step := 0; step < 300; step++ {
		r := readers[rng.Intn(len(readers))]
		if rng.Intn(2) == 0 {
			// Add 1-6 random writers.
			k := 1 + rng.Intn(6)
			var delta []graph.NodeID
			for i := 0; i < k; i++ {
				w := graph.NodeID(rng.Intn(30))
				if !model[r][w] {
					model[r][w] = true
					delta = append(delta, w)
				}
			}
			if err := m.AddReaderInputs(0, r, delta); err != nil {
				t.Fatalf("step %d add: %v", step, err)
			}
		} else {
			var have []graph.NodeID
			for w := range model[r] {
				have = append(have, w)
			}
			if len(have) == 0 {
				continue
			}
			k := 1 + rng.Intn(len(have))
			var delta []graph.NodeID
			for i := 0; i < k; i++ {
				w := have[rng.Intn(len(have))]
				if model[r][w] {
					delete(model[r], w)
					delta = append(delta, w)
				}
			}
			if err := m.RemoveReaderInputs(0, r, delta); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
		}
		if step%25 == 0 {
			checkModel(t, m.Overlay(), model, step)
		}
	}
	checkModel(t, m.Overlay(), model, -1)
}

func checkModel(t *testing.T, ov *overlay.Overlay, model map[graph.NodeID]map[graph.NodeID]bool, step int) {
	t.Helper()
	if _, err := ov.TopoOrder(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	for r, want := range model {
		ref := ov.Reader(0, r)
		if ref == overlay.NoNode {
			t.Fatalf("step %d: reader %d missing", step, r)
		}
		got := ov.InputSet(ref)
		if len(got) != len(want) {
			t.Fatalf("step %d: reader %d aggregates %d inputs, want %d (%v vs %v)",
				step, r, len(got), len(want), got, want)
		}
		for w := range want {
			if got[w] != 1 {
				t.Fatalf("step %d: reader %d multiplicity of %d = %d",
					step, r, w, got[w])
			}
		}
	}
}

func TestMaintainerRejectsNegativeEdges(t *testing.T) {
	ag := bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		10: {0, 1, 2},
		11: {0, 2},
	})
	ov := overlay.New(ag.NumEdges())
	wa, wb, wc := ov.AddWriter(0), ov.AddWriter(1), ov.AddWriter(2)
	p := ov.AddPartial()
	for _, w := range []overlay.NodeRef{wa, wb, wc} {
		if err := ov.AddEdge(w, p, false); err != nil {
			t.Fatal(err)
		}
	}
	r10, r11 := ov.AddReader(0, 10), ov.AddReader(0, 11)
	_ = ov.AddEdge(p, r10, false)
	_ = ov.AddEdge(p, r11, false)
	_ = ov.AddEdge(wb, r11, true)
	if _, err := NewMaintainer(ov); err == nil {
		t.Fatal("maintainer must reject overlays with negative edges")
	}

	// The rejection is a scan of the in-edges, made before any index is
	// built: on a mined VNM_N overlay (the benchmark's social graph, ~1.7k
	// nodes) it allocates nothing, where building one writer set per node up
	// to the first negative edge was a fifth of a session set-up.
	res, err := Build(AlgVNMN, bipartite.Build(benchGraphs[1].gen(), graph.InNeighbors{}, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overlay.Flatten().ComputeStats().NegEdges == 0 {
		t.Fatal("fixture: VNM_N mined no negative edge")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewMaintainer(res.Overlay); err == nil {
			t.Fatal("maintainer must reject a mined VNM_N overlay")
		}
	}); allocs != 0 {
		t.Fatalf("rejecting a negative-edge overlay allocates %.0f times, want 0", allocs)
	}
}

func TestAffectedByEdge(t *testing.T) {
	g := graph.NewWithNodes(5)
	// 0 -> 1 -> 2 -> 3, 1 -> 4
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {1, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := AffectedByEdge(g, graph.InNeighbors{}, 0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("in-1hop affected = %v, want [1]", got)
	}
	if got := AffectedByEdge(g, graph.OutNeighbors{}, 0, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("out-1hop affected = %v, want [0]", got)
	}
	got := AffectedByEdge(g, graph.KHopIn{K: 2}, 0, 1)
	// v=1 plus nodes within 1 hop downstream of 1: {1, 2, 4}.
	set := map[graph.NodeID]bool{}
	for _, v := range got {
		set[v] = true
	}
	if len(set) != 3 || !set[1] || !set[2] || !set[4] {
		t.Fatalf("2hop affected = %v, want {1,2,4}", got)
	}
}
