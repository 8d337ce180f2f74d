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
// ids with no slot inside the range, and — on a merged plan — tags past the
// last one and nodes that have a reader under another tag only.
func TestPlanDenseLookup(t *testing.T) {
	outside := []graph.NodeID{-1, math.MinInt32, 7, 1000, math.MaxInt32}

	single := construct.Baseline(paperAG())
	p := compilePlan(single.Flatten())
	for v := graph.NodeID(0); v < 7; v++ {
		if got, want := p.writer(v), single.Writer(v); got != want {
			t.Errorf("single: writer(%d) = %d, overlay says %d", v, got, want)
		}
		if got, want := p.reader(0, v), single.Reader(0, v); got != want || got == overlay.NoNode {
			t.Errorf("single: reader(0,%d) = %d, overlay says %d", v, got, want)
		}
		if got := p.reader(1, v); got != overlay.NoNode {
			t.Errorf("single: reader(1,%d) = %d, only tag 0 has readers", v, got)
		}
	}
	for _, v := range outside {
		if w, r := p.writer(v), p.reader(0, v); w != overlay.NoNode || r != overlay.NoNode {
			t.Errorf("single: node %d resolves to writer %d / reader %d, want NoNode", v, w, r)
		}
	}

	// Two views over six nodes: tag 0 reads at 0, 1, 2 and tag 1 at 0 and
	// 3; node 6 writes nothing.
	merged := construct.Baseline(bipartite.FromInputLists(
		map[graph.NodeID][]graph.NodeID{0: {1, 2}, 1: {0, 2, 3}, 2: {4, 5}},
		map[graph.NodeID][]graph.NodeID{0: {1, 5}, 3: {0, 1, 2}},
	))
	p = compilePlan(merged.Flatten())
	for tag, nodes := range map[int32][]graph.NodeID{0: {0, 1, 2}, 1: {0, 3}} {
		for _, v := range nodes {
			want := merged.Reader(tag, v)
			if got := p.reader(tag, v); got != want || got == overlay.NoNode {
				t.Errorf("merged: reader(%d,%d) = %d, want %d", tag, v, got, want)
			}
		}
	}
	for _, q := range []struct {
		tag int32
		v   graph.NodeID
	}{
		{0, 3}, {0, 7}, // tag 0 has no reader there; tag 1 has one at 3
		{1, 1}, {1, 2}, {1, 7}, // tag 1 has none; tag 0 has one at 1 and 2
		{2, 0}, {2, 3}, {-1, 0}, {math.MaxInt32, 0}, {math.MinInt32, 3}, // no such tag
		{0, -1}, {1, math.MaxInt32}, {1, math.MinInt32},
	} {
		if got := p.reader(q.tag, q.v); got != overlay.NoNode {
			t.Errorf("merged: reader(%d,%d) = %d, want NoNode", q.tag, q.v, got)
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
			e, err := New(decide(t, ov, mode), a, agg.NewTupleWindow(3))
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
