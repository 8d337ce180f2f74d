package construct

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// agFromSeed deterministically derives a random AG from a compact seed so
// testing/quick can explore the input space.
func agFromSeed(seed int64, readers, writers uint8) *bipartite.AG {
	rng := rand.New(rand.NewSource(seed))
	nr := 3 + int(readers%40)
	nw := 3 + int(writers%25)
	lists := make(map[graph.NodeID][]graph.NodeID, nr)
	for r := 0; r < nr; r++ {
		var in []graph.NodeID
		seen := map[graph.NodeID]bool{}
		deg := rng.Intn(nw)
		for i := 0; i < deg; i++ {
			w := graph.NodeID(rng.Intn(nw))
			if !seen[w] {
				seen[w] = true
				in = append(in, w)
			}
		}
		lists[graph.NodeID(nw+r)] = in
	}
	return bipartite.FromInputLists(lists)
}

// Property: every algorithm produces a valid overlay (exact coverage,
// acyclic, structurally sound) on arbitrary random bipartite graphs.
func TestQuickAllAlgorithmsValid(t *testing.T) {
	cfgs := []struct {
		alg   string
		dupOK bool
	}{
		{AlgVNM, false}, {AlgVNMA, false}, {AlgVNMN, false},
		{AlgVNMD, true}, {AlgIOB, false},
	}
	for _, c := range cfgs {
		c := c
		f := func(seed int64, readers, writers uint8) bool {
			ag := agFromSeed(seed, readers, writers)
			res, err := Build(c.alg, ag, Config{Iterations: 3, ChunkSize: 16})
			if err != nil {
				return false
			}
			return res.Overlay.ValidateAgainst(ag, c.dupOK) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", c.alg, err)
		}
	}
}

// Property: the sharing index never goes below the baseline (0) for
// single-path algorithms, and overlay edge counts match the SI formula.
func TestQuickSharingIndexConsistency(t *testing.T) {
	f := func(seed int64, readers, writers uint8) bool {
		ag := agFromSeed(seed, readers, writers)
		res, err := Build(AlgVNMA, ag, Config{Iterations: 3})
		if err != nil {
			return false
		}
		ov := res.Overlay
		if ag.NumEdges() == 0 {
			return ov.NumEdges() == 0
		}
		wantSI := 1 - float64(ov.NumEdges())/float64(ag.NumEdges())
		return ov.SharingIndex() == wantSI && ov.NumEdges() <= ag.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every reader registered in AG appears in the overlay, and no
// overlay reader is absent from AG.
func TestQuickReaderPreservation(t *testing.T) {
	f := func(seed int64, readers, writers uint8) bool {
		ag := agFromSeed(seed, readers, writers)
		res, err := Build(AlgIOB, ag, Config{Iterations: 2})
		if err != nil {
			return false
		}
		if len(res.Overlay.Readers()) != ag.NumReaders() {
			return false
		}
		for _, r := range ag.Readers {
			if res.Overlay.Reader(r.Tag, r.Node) == overlay.NoNode {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: partial aggregation nodes always serve at least one consumer
// and aggregate at least one writer (no degenerate nodes survive).
func TestQuickNoDegeneratePartials(t *testing.T) {
	f := func(seed int64, readers, writers uint8) bool {
		ag := agFromSeed(seed, readers, writers)
		for _, alg := range []string{AlgVNMA, AlgIOB} {
			res, err := Build(alg, ag, Config{Iterations: 3})
			if err != nil {
				return false
			}
			ok := true
			res.Overlay.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
				if n.Kind == overlay.PartialNode {
					if len(n.Out) == 0 || len(n.In) == 0 {
						ok = false
					}
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips every constructed overlay exactly.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(seed int64, readers, writers uint8) bool {
		ag := agFromSeed(seed, readers, writers)
		res, err := Build(AlgVNMN, ag, Config{Iterations: 2})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := res.Overlay.Save(&buf); err != nil {
			return false
		}
		loaded, err := overlay.Load(&buf)
		if err != nil {
			return false
		}
		return loaded.DebugString() == res.Overlay.DebugString() &&
			loaded.ValidateAgainst(ag, false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
