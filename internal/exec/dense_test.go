package exec

import (
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// TestPlanDenseLookup checks the dense node → slot arrays against the
// overlay's own maps and at their edges: ids past the end, negative ids,
// ids with no slot inside the range, and — on a merged plan — nodes and
// tags that would alias into a sibling tag's encoded GID range.
func TestPlanDenseLookup(t *testing.T) {
	outside := []graph.NodeID{-1, math.MinInt32, 7, 1000, math.MaxInt32}

	single := construct.Baseline(paperAG())
	p := compilePlan(single)
	for v := graph.NodeID(0); v < 7; v++ {
		if got, want := p.writer(v), single.Writer(v); got != want {
			t.Errorf("single: writer(%d) = %d, overlay says %d", v, got, want)
		}
		if got, want := p.reader(v), single.Reader(v); got != want || got == overlay.NoNode {
			t.Errorf("single: reader(%d) = %d, overlay says %d", v, got, want)
		}
		if got := p.readerTagged(0, v); got != single.Reader(v) {
			t.Errorf("single: readerTagged(0,%d) = %d, want %d", v, got, single.Reader(v))
		}
		if got := p.readerTagged(1, v); got != overlay.NoNode {
			t.Errorf("single: readerTagged(1,%d) = %d, only tag 0 resolves without a stride", v, got)
		}
	}
	for _, v := range outside {
		if w, r, rt := p.writer(v), p.reader(v), p.readerTagged(0, v); w != overlay.NoNode || r != overlay.NoNode || rt != overlay.NoNode {
			t.Errorf("single: node %d resolves to writer %d / reader %d / tagged %d, want NoNode", v, w, r, rt)
		}
	}

	// Two views over six nodes with stride 8: tag 0 reads at 0, 1, 2 and tag
	// 1 at 0 and 3 (encoded 8 and 11); node 6 writes nothing.
	const stride = 8
	merged := construct.Baseline(bipartite.FromInputLists(map[graph.NodeID][]graph.NodeID{
		0: {1, 2}, 1: {0, 2, 3}, 2: {4, 5},
		stride + 0: {1, 5}, stride + 3: {0, 1, 2},
	}))
	merged.SetReaderStride(stride)
	p = compilePlan(merged)
	for tag, nodes := range map[int32][]graph.NodeID{0: {0, 1, 2}, 1: {0, 3}} {
		for _, v := range nodes {
			want := merged.Reader(graph.NodeID(tag)*stride + v)
			if got := p.readerTagged(tag, v); got != want || got == overlay.NoNode {
				t.Errorf("merged: readerTagged(%d,%d) = %d, want %d", tag, v, got, want)
			}
			if got := p.reader(graph.NodeID(tag)*stride + v); got != want {
				t.Errorf("merged: reader(%d) = %d, want %d", graph.NodeID(tag)*stride+v, got, want)
			}
		}
	}
	for _, q := range []struct {
		tag int32
		v   graph.NodeID
	}{
		{0, 3}, {0, 7}, // inside tag 0's range, no reader
		{0, stride}, {0, stride + 3}, // would land on tag 1's readers
		{1, -stride}, {1, -5}, // would land on tag 0's
		{1, 1}, {1, 7}, // inside tag 1's range, no reader
		{1, stride}, {2, 0}, {2, 3}, {-1, stride}, // past the last reader
		{0, -1}, {1, math.MaxInt32}, {1, math.MinInt32},
	} {
		if got := p.readerTagged(q.tag, q.v); got != overlay.NoNode {
			t.Errorf("merged: readerTagged(%d,%d) = %d, want NoNode", q.tag, q.v, got)
		}
	}
	for v := graph.NodeID(0); v < 6; v++ {
		if got, want := p.writer(v), merged.Writer(v); got != want || got == overlay.NoNode {
			t.Errorf("merged: writer(%d) = %d, overlay says %d", v, got, want)
		}
	}
	for _, v := range append(outside, 6) {
		if got := p.writer(v); got != overlay.NoNode {
			t.Errorf("merged: writer(%d) = %d, want NoNode", v, got)
		}
	}
}

// TestHolisticSteadyStateAllocs: with the flat multiset under them, MAX,
// MIN, TOP-K and DISTINCT allocate nothing in steady state — neither a write
// through the push region nor a read into a retained result, push (MAX/MIN:
// the published best) or pull (MAX/MIN: the fold over published bests;
// TOP-K/DISTINCT: pooled PAO arena, tables cleared in place). SUM's atomic
// cells are the control.
func TestHolisticSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, a := range []agg.Aggregate{agg.Sum{}, agg.Max{}, agg.Min{}, agg.TopK{K: 3}, agg.Distinct{}} {
		for _, mode := range []string{"push", "pull"} {
			ov := construct.Baseline(paperAG())
			decide(t, ov, mode)
			e, err := New(ov, a, agg.NewTupleWindow(3))
			if err != nil {
				t.Fatal(err)
			}
			var res agg.Result
			i := int64(0)
			cycle := func() {
				v := graph.NodeID(i % 7)
				if err := e.Write(v, (i*7919)%23<<24, i); err != nil {
					t.Fatal(err)
				}
				if err := e.ReadInto(graph.NodeID((i+3)%7), &res); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range 500 {
				cycle() // every value of the domain has been everywhere once
			}
			if n := testing.AllocsPerRun(1000, cycle); n != 0 {
				t.Errorf("%s, all-%s: a write plus a ReadInto allocates %v times, want 0", a.Name(), mode, n)
			}
		}
	}
}
