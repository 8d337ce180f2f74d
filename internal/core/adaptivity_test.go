package core

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/workload"
)

// zipfFixture compiles a over the benchmark's web graph under the default
// uniform 1:1 estimate and returns it with a replay function: window k of a
// fixed Zipf workload (independently skewed reads and writes, so the
// estimate is wrong at most nodes), 40k operations a window.
func zipfFixture(t *testing.T, a agg.Aggregate) (*System, func(window int)) {
	t.Helper()
	g := workload.WebGraph(600, 50, 12, 1)
	s, err := Compile(g, Query{Aggregate: a}, Options{})
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
				_, err = s.Read(ev.Node)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRebalanceConverges: under a stationary workload the §4.8 scheme must
// settle. It used to ratchet: a pull frontier node never saw a push counted
// (the engine counts pushes inside push closures only), so 64 reads flipped
// it to push whatever its inputs' write rate, a push reader could never flip
// back, and each round's flips exposed the next layer to the same mistake.
func TestRebalanceConverges(t *testing.T) {
	s, replay := zipfFixture(t, agg.Sum{})
	var flips []int
	for window := 0; window < 6; window++ {
		replay(window)
		n, err := s.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		flips = append(flips, n)
	}
	t.Logf("flips per round: %v", flips)
	if flips[0] < 20 {
		t.Fatalf("fixture: first round flipped %d nodes, the estimate was meant to be wrong", flips[0])
	}
	for round := 3; round < len(flips); round++ {
		if 100*flips[round] > 15*flips[0] {
			t.Fatalf("round %d still flips %d nodes, more than 15%% of the first round's %d: %v",
				round+1, flips[round], flips[0], flips)
		}
	}
}

// TestRebalanceNeverRaisesObservedCost: the frequencies a window observed —
// writes per writer, reads per reader, propagated through the overlay — are
// the §4.3 objective the window's flips are supposed to improve. Every
// Rebalance must leave dataflow.TotalCost under them no higher than it
// found it.
func TestRebalanceNeverRaisesObservedCost(t *testing.T) {
	// SUM runs the scalar engine over VNM_N's negative edges, MAX the PAO
	// engine over VNM_D's duplicate paths with a logarithmic push cost.
	for _, a := range []agg.Aggregate{agg.Sum{}, agg.Max{}} {
		t.Run(a.Name(), func(t *testing.T) { neverRaisesObservedCost(t, a) })
	}
}

func neverRaisesObservedCost(t *testing.T, a agg.Aggregate) {
	s, replay := zipfFixture(t, a)
	for window := 0; window < 8; window++ {
		replay(window)
		smp := s.SampleObservations()
		wl := dataflow.NewWorkload(s.g.MaxID())
		for v, c := range smp.WriterWrites {
			wl.Write[v] = c
		}
		wl.ReaderReads = smp.ReaderReads
		f, err := dataflow.ComputeFreqs(s.ov, wl, s.windowSizeHint())
		if err != nil {
			t.Fatal(err)
		}
		before := dataflow.TotalCost(s.ov, f, s.cost)
		flips, err := s.ApplyFlips()
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
	}
}

// TestSampleReadsPerReader: reads are sampled per reader GID, so two views
// of a merged family read at different rates at one node stay two entries
// (tag*stride + node) instead of folding onto the node.
func TestSampleReadsPerReader(t *testing.T) {
	g := workload.SocialGraph(100, 6, 1)
	s, err := CompileMerged(g, Query{Aggregate: agg.Sum{}}, []MemberSpec{{}, {}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const v = graph.NodeID(7)
	for tag, n := range []int{3, 5} {
		for i := 0; i < n; i++ {
			if _, err := s.ReadView(int32(tag), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := s.SampleObservations().ReaderReads
	want := map[graph.NodeID]float64{v: 3, s.stride + v: 5}
	if len(got) != len(want) || got[v] != want[v] || got[s.stride+v] != want[s.stride+v] {
		t.Fatalf("ReaderReads = %v, want %v", got, want)
	}
}

// TestRestrideDropsStaleReaderReads: per-reader reads kept by Reoptimize
// are keyed by GIDs encoded under the stride of the time; once the graph
// outgrows it and the family re-strides, those keys name other readers, so
// the re-stride drops them instead of pricing the wrong readers hot.
func TestRestrideDropsStaleReaderReads(t *testing.T) {
	g := workload.SocialGraph(500, 6, 1) // stride 1024: ~520 node adds re-stride it
	s, err := CompileMerged(g, Query{Aggregate: agg.Sum{}}, []MemberSpec{{}, {}}, Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		t.Fatal(err)
	}
	stride := s.stride
	wl := dataflow.NewWorkload(g.MaxID())
	wl.ReaderReads = map[graph.NodeID]float64{stride + 5: 1000}
	if err := s.Reoptimize(wl); err != nil {
		t.Fatal(err)
	}
	if s.wl.ReaderReads[stride+5] != 1000 {
		t.Fatalf("fixture: Reoptimize did not keep the per-reader reads: %v", s.wl.ReaderReads)
	}
	for s.stride == stride {
		if _, err := s.AddGraphNode(); err != nil {
			t.Fatal(err)
		}
	}
	if s.wl.ReaderReads != nil {
		t.Fatalf("re-stride %d -> %d kept reads keyed under the old stride: %v", stride, s.stride, s.wl.ReaderReads)
	}
}
