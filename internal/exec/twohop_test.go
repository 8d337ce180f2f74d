package exec

import (
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/graph"
)

// TestTwoHopEngineMatchesOracle exercises 2-hop neighborhoods end to end:
// build AG with KHopIn{2}, compile overlays, and verify reads against a
// brute-force 2-hop oracle (the Figure 14(c) configuration).
func TestTwoHopEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.NewWithNodes(40)
	for i := 0; i < 120; i++ {
		u, v := graph.NodeID(rng.Intn(40)), graph.NodeID(rng.Intn(40))
		if u != v {
			_ = g.AddEdge(u, v) // duplicates rejected, fine
		}
	}
	n2 := graph.KHopIn{K: 2}
	ag := bipartite.Build(g, n2, graph.AllNodes)
	for _, alg := range []string{"baseline", construct.AlgVNMA, construct.AlgIOB} {
		var ov = construct.Baseline(ag)
		if alg != "baseline" {
			res, err := construct.Build(alg, ag, construct.Config{Iterations: 3})
			if err != nil {
				t.Fatal(err)
			}
			ov = res.Overlay
		}
		e, err := New(decide(t, ov, "optimal"), agg.Sum{}, agg.NewTupleWindow(1))
		if err != nil {
			t.Fatal(err)
		}
		latest := map[graph.NodeID]int64{}
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 {
				v := graph.NodeID(rng.Intn(40))
				x := int64(rng.Intn(50))
				if err := e.Write(v, x, int64(step)); err != nil {
					t.Fatal(err)
				}
				latest[v] = x
			} else {
				v := graph.NodeID(rng.Intn(40))
				got, err := e.Read(v)
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				count := 0
				for _, u := range n2.Select(g, v) {
					if x, ok := latest[u]; ok {
						want += x
						count++
					}
				}
				if count == 0 {
					if got.Valid {
						t.Fatalf("%s step %d: read(%d) = %v, want empty", alg, step, v, got)
					}
					continue
				}
				if got.Scalar != want {
					t.Fatalf("%s step %d: 2-hop read(%d) = %v, want %d", alg, step, v, got, want)
				}
			}
		}
	}
}
