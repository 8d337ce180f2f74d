package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/graph"
)

// TestApproxTopKThroughOverlay runs the approximate TOP-K end to end over a
// shared overlay and checks it agrees with exact TOP-K on skewed streams.
func TestApproxTopKThroughOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := paperGraph()
	exact, err := Compile(g, Query{Aggregate: agg.TopK{K: 2}, Window: agg.NewTupleWindow(50)},
		Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Compile(paperGraph(), Query{Aggregate: agg.ApproxTopK{K: 2}, Window: agg.NewTupleWindow(50)},
		Options{Algorithm: construct.AlgVNMN}) // sketch is subtractable → negative edges legal
	if err != nil {
		t.Fatal(err)
	}
	// Skewed stream: heavy hitters 3 and 7.
	for i := 0; i < 5000; i++ {
		v := graph.NodeID(rng.Intn(7))
		var x int64
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			x = 3
		case 4, 5, 6:
			x = 7
		default:
			x = int64(10 + rng.Intn(40))
		}
		if err := exact.Engine().Write(v, x, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := approx.Engine().Write(v, x, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for v := graph.NodeID(0); v < 7; v++ {
		want, err := exact.eng.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := approx.eng.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Valid {
			continue
		}
		if len(got.List) < 2 || got.List[0] != want.List[0] || got.List[1] != want.List[1] {
			t.Fatalf("node %d: approx top2 = %v, exact = %v", v, got.List, want.List)
		}
	}
}

// TestApproxDistinctThroughOverlay checks the counting-Bloom distinct count
// against the exact distinct over an overlay with windows.
func TestApproxDistinctThroughOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := paperGraph()
	sys, err := Compile(g, Query{Aggregate: agg.ApproxDistinct{}, Window: agg.NewTupleWindow(200)},
		Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Compile(paperGraph(), Query{Aggregate: agg.Distinct{}, Window: agg.NewTupleWindow(200)},
		Options{Algorithm: construct.AlgVNMA})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		v := graph.NodeID(rng.Intn(7))
		x := int64(rng.Intn(300))
		_ = sys.Engine().Write(v, x, int64(i))
		_ = exact.Engine().Write(v, x, int64(i))
	}
	for v := graph.NodeID(0); v < 7; v++ {
		got, err := sys.eng.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.eng.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if want.Scalar == 0 {
			continue
		}
		rel := math.Abs(float64(got.Scalar-want.Scalar)) / float64(want.Scalar)
		if rel > 0.15 {
			t.Fatalf("node %d: distinct~ = %d, exact = %d (rel err %.2f)",
				v, got.Scalar, want.Scalar, rel)
		}
	}
}
