package exec

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// paperAG is the running example (Figure 1).
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

// figure1Writes replays the content streams of Figure 1(a); with a c=1
// window only the last value per node matters.
func figure1Writes(t *testing.T, e *Engine) {
	t.Helper()
	streams := map[graph.NodeID][]int64{
		0: {1, 4}, 1: {3, 7}, 2: {6, 9}, 3: {8, 4, 3},
		4: {5, 9, 1}, 5: {3, 6, 6}, 6: {5},
	}
	ts := int64(0)
	for v, vals := range streams {
		for _, x := range vals {
			if err := e.Write(v, x, ts); err != nil {
				t.Fatal(err)
			}
			ts++
		}
	}
}

func decide(t *testing.T, ov *overlay.Overlay, mode string) {
	t.Helper()
	switch mode {
	case "push":
		dataflow.DecideAll(ov, overlay.Push)
	case "pull":
		dataflow.DecideAll(ov, overlay.Pull)
	case "optimal":
		wl := dataflow.Uniform(64, 1, 1)
		f, err := dataflow.ComputeFreqs(ov, wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dataflow.Decide(ov, f, dataflow.ConstLinear{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPaperExampleSums(t *testing.T) {
	ag := paperAG()
	for _, mode := range []string{"push", "pull", "optimal"} {
		for _, alg := range []string{"baseline", construct.AlgVNMA, construct.AlgIOB} {
			var ov *overlay.Overlay
			if alg == "baseline" {
				ov = construct.Baseline(ag)
			} else {
				res, err := construct.Build(alg, ag, construct.Config{Iterations: 5})
				if err != nil {
					t.Fatal(err)
				}
				ov = res.Overlay
			}
			decide(t, ov, mode)
			e, err := New(ov, agg.Sum{}, agg.NewTupleWindow(1))
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, mode, err)
			}
			figure1Writes(t, e)
			// Expected sums with most-recent values a..g =
			// 4,7,9,3,1,6,5 over the Figure 1(b) input lists.
			want := map[graph.NodeID]int64{
				0: 9 + 3 + 1 + 6,         // N(a)={c,d,e,f} = 19
				1: 3 + 1 + 6,             // N(b)={d,e,f} = 10
				4: 4 + 7 + 9 + 3,         // N(e)={a,b,c,d} = 23
				6: 4 + 7 + 9 + 3 + 1 + 6, // N(g)=all = 30
			}
			for v, w := range want {
				got, err := e.Read(v)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Valid || got.Scalar != w {
					t.Fatalf("%s/%s: read(%d) = %v, want %d", alg, mode, v, got, w)
				}
			}
		}
	}
}

// oracle tracks per-writer windows and computes expected results directly.
type oracle struct {
	c       int
	vals    map[graph.NodeID][]int64
	inputs  map[graph.NodeID][]graph.NodeID
	makeAgg func() agg.PAO
}

func newOracle(ag *bipartite.AG, a agg.Aggregate, c int) *oracle {
	o := &oracle{
		c:       c,
		vals:    make(map[graph.NodeID][]int64),
		inputs:  make(map[graph.NodeID][]graph.NodeID),
		makeAgg: a.NewPAO,
	}
	for _, r := range ag.Readers {
		o.inputs[r.Node] = r.Inputs
	}
	return o
}

func (o *oracle) write(v graph.NodeID, x int64) {
	o.vals[v] = append(o.vals[v], x)
	if len(o.vals[v]) > o.c {
		o.vals[v] = o.vals[v][1:]
	}
}

func (o *oracle) read(v graph.NodeID) agg.Result {
	p := o.makeAgg()
	for _, w := range o.inputs[v] {
		for _, x := range o.vals[w] {
			p.AddValue(x)
		}
	}
	return p.Finalize()
}

// TestEngineMatchesOracle is the end-to-end correctness test: every
// aggregate × every construction algorithm × every decision mode, against
// randomized workloads.
func TestEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	ag := paperAG()
	aggs := []agg.Aggregate{agg.Sum{}, agg.Count{}, agg.Avg{}, agg.Max{}, agg.Min{}, agg.TopK{K: 2}, agg.Distinct{}}
	algs := []string{"baseline", construct.AlgVNM, construct.AlgVNMA, construct.AlgVNMN, construct.AlgVNMD, construct.AlgIOB}
	for _, a := range aggs {
		for _, alg := range algs {
			props := a.Props()
			// Match the paper's legality rules.
			if alg == construct.AlgVNMN && !props.Subtractable {
				continue
			}
			if alg == construct.AlgVNMD && !props.DuplicateInsensitive {
				continue
			}
			for _, mode := range []string{"push", "pull", "optimal"} {
				runOracleTrial(t, rng, ag, a, alg, mode)
			}
		}
	}
}

func runOracleTrial(t *testing.T, rng *rand.Rand, ag *bipartite.AG, a agg.Aggregate, alg, mode string) {
	t.Helper()
	var ov *overlay.Overlay
	if alg == "baseline" {
		ov = construct.Baseline(ag)
	} else {
		res, err := construct.Build(alg, ag, construct.Config{Iterations: 4})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		ov = res.Overlay
	}
	decide(t, ov, mode)
	const window = 3
	e, err := New(ov, a, agg.NewTupleWindow(window))
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", a.Name(), alg, mode, err)
	}
	o := newOracle(ag, a, window)
	for step := 0; step < 400; step++ {
		v := graph.NodeID(rng.Intn(7))
		if rng.Intn(2) == 0 {
			x := int64(rng.Intn(10))
			if err := e.Write(v, x, int64(step)); err != nil {
				t.Fatal(err)
			}
			o.write(v, x)
		} else {
			got, err := e.Read(v)
			if err != nil {
				t.Fatal(err)
			}
			want := o.read(v)
			if !got.Eq(want) {
				t.Fatalf("%s/%s/%s step %d: read(%d) = %v, want %v\n%s",
					a.Name(), alg, mode, step, v, got, want, ov.DebugString())
			}
		}
	}
}

func TestTimeWindowExpiryPropagates(t *testing.T) {
	ag := paperAG()
	ov := construct.Baseline(ag)
	decide(t, ov, "push")
	e, err := New(ov, agg.Sum{}, agg.NewTimeWindow(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(2, 5, 0); err != nil { // c writes 5 at t=0
		t.Fatal(err)
	}
	if err := e.Write(3, 7, 1); err != nil { // d writes 7 at t=1
		t.Fatal(err)
	}
	// Reader a (N={c,d,e,f}) sees 12.
	got, _ := e.Read(0)
	if got.Scalar != 12 {
		t.Fatalf("sum = %v, want 12", got)
	}
	e.Apply(nil, 10) // expires c's write (ts 0 <= 10-10), keeps d's (ts 1)
	got, _ = e.Read(0)
	if got.Scalar != 7 {
		t.Fatalf("sum after expiry = %v, want 7", got)
	}
}

func TestConcurrentWritesAndReads(t *testing.T) {
	ag := paperAG()
	res, err := construct.Build(construct.AlgVNMA, ag, construct.Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	decide(t, res.Overlay, "optimal")
	e, err := New(res.Overlay, agg.Sum{}, agg.NewTupleWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				v := graph.NodeID(rng.Intn(7))
				if rng.Intn(2) == 0 {
					_ = e.Write(v, 1, int64(i))
				} else {
					_, _ = e.Read(v)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Quiescent state: every node has written 1 at some point or never;
	// a final write round makes all windows hold exactly 1.
	for v := graph.NodeID(0); v < 7; v++ {
		if err := e.Write(v, 1, 10000); err != nil {
			t.Fatal(err)
		}
	}
	want := map[graph.NodeID]int64{0: 4, 1: 3, 2: 5, 3: 5, 4: 4, 5: 5, 6: 6}
	for v, w := range want {
		got, err := e.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if got.Scalar != w {
			t.Fatalf("read(%d) = %v, want %d", v, got, w)
		}
	}
	writes, reads := e.Counts()
	if writes == 0 || reads == 0 {
		t.Fatal("counters not updated")
	}
}

func TestRebuildAfterDecisionFlip(t *testing.T) {
	ag := paperAG()
	ov := construct.Baseline(ag)
	decide(t, ov, "pull")
	e, err := New(ov, agg.Sum{}, agg.NewTupleWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); v < 7; v++ {
		if err := e.Write(v, int64(v), 0); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := e.Read(6) // N(g) = 0+1+2+3+4+5 = 15
	if before.Scalar != 15 {
		t.Fatalf("pre-flip read = %v, want 15", before)
	}
	// Flip everything to push (as an adaptive rebalance might) and install.
	dataflow.DecideAll(ov, overlay.Push)
	if err := e.Rebuild(ov, nil); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Read(6)
	if after.Scalar != 15 {
		t.Fatalf("post-flip read = %v, want 15", after)
	}
	// Subsequent writes keep the pushed state correct.
	if err := e.Write(0, 100, 1); err != nil {
		t.Fatal(err)
	}
	after, _ = e.Read(6)
	if after.Scalar != 115 {
		t.Fatalf("post-flip incremental read = %v, want 115", after)
	}
}

func TestObservationsDrain(t *testing.T) {
	ag := paperAG()
	ov := construct.Baseline(ag)
	decide(t, ov, "optimal")
	e, err := New(ov, agg.Sum{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Write(0, 1, 0)
	_, _ = e.Read(4)
	pushes, pulls := e.Observations()
	if len(pushes) == 0 {
		t.Fatal("no push observations")
	}
	if len(pulls) == 0 {
		t.Fatal("no pull observations")
	}
	pushes, pulls = e.Observations()
	if len(pushes) != 0 || len(pulls) != 0 {
		t.Fatal("observations not drained")
	}
}

func TestWriteUnknownNode(t *testing.T) {
	ag := paperAG()
	ov := construct.Baseline(ag)
	decide(t, ov, "push")
	e, err := New(ov, agg.Sum{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Writes to nodes feeding no reader are absorbed (Figure 1(c): g_w).
	if err := e.Write(99, 1, 0); err != nil {
		t.Fatalf("write to non-feeding node should be a no-op: %v", err)
	}
	if _, err := e.Read(99); err == nil {
		t.Fatal("read of unknown node should fail")
	}
}

func TestNegativeEdgeExecution(t *testing.T) {
	// Hand-built overlay with a negative edge: reader 11 = p - b where
	// p aggregates {a,b,c}.
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
	for _, mode := range []string{"push", "pull"} {
		decide(t, ov, mode)
		e, err := New(ov, agg.Sum{}, agg.NewTupleWindow(1))
		if err != nil {
			t.Fatal(err)
		}
		_ = e.Write(0, 5, 0)
		_ = e.Write(1, 7, 1)
		_ = e.Write(2, 11, 2)
		got10, _ := e.Read(10)
		if got10.Scalar != 23 {
			t.Fatalf("%s: read(10) = %v, want 23", mode, got10)
		}
		got11, _ := e.Read(11)
		if got11.Scalar != 16 {
			t.Fatalf("%s: read(11) = %v, want 16 (negative edge)", mode, got11)
		}
		// Overwrite b; the negative contribution must track it.
		_ = e.Write(1, 100, 3)
		got11, _ = e.Read(11)
		if got11.Scalar != 16 {
			t.Fatalf("%s: read(11) after b update = %v, want 16", mode, got11)
		}
	}
}
