package exec_test

import (
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestMergedFamilyExpiryMatchesScan checks the per-writer next-expiry
// index on a merged-family engine: two time-windowed views (1-hop and
// 2-hop) compiled into ONE merged overlay share one engine and therefore
// one expiry index. A random stream of writes and watermark advances
// through the indexed advance must leave every view in exactly the
// state a twin system reaches through the full-walk ExpireAllScan. (It
// lives here, not in core, because the scan reference is test-only API of
// this package.)
func TestMergedFamilyExpiryMatchesScan(t *testing.T) {
	const nodes = 10
	opts := core.Options{Algorithm: construct.AlgVNMA}
	mk := func() (*core.MultiSystem, *core.Attachment, *core.Attachment) {
		ring := graph.NewWithNodes(nodes)
		for i := 0; i < nodes; i++ {
			_ = ring.AddEdge(graph.NodeID((i+1)%nodes), graph.NodeID(i))
			_ = ring.AddEdge(graph.NodeID((i+nodes-1)%nodes), graph.NodeID(i))
		}
		m := core.NewMulti(ring)
		q1 := core.Query{Aggregate: agg.Sum{}, Window: agg.NewTimeWindow(20)}
		q2 := core.Query{Aggregate: agg.Sum{}, Window: agg.NewTimeWindow(20),
			Neighborhood: graph.KHopIn{K: 2}}
		a1, err := m.AttachMerged("k1", "fam", q1, opts)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := m.AttachMerged("k2", "fam", q2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a1.System() != a2.System() {
			t.Fatal("family members must share one merged system")
		}
		return m, a1, a2
	}
	heapM, h1, h2 := mk()
	scanM, s1, s2 := mk()

	compare := func(label string) {
		t.Helper()
		for _, pair := range [][2]*core.Attachment{{h1, s1}, {h2, s2}} {
			for v := graph.NodeID(0); v < nodes; v++ {
				got, err1 := pair[0].Read(v)
				want, err2 := pair[1].Read(v)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: node %d: %v / %v", label, v, err1, err2)
				}
				if got.Valid != want.Valid || got.Scalar != want.Scalar {
					t.Fatalf("%s: view %d node %d: heap %+v, scan %+v",
						label, pair[0].ViewTag(), v, got, want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(41))
	ts := int64(0)
	for step := 0; step < 1200; step++ {
		if rng.Intn(8) == 0 {
			wm := ts - int64(rng.Intn(25))
			_, _ = heapM.Apply(nil, wm)
			for _, sys := range scanM.Systems() {
				sys.Engine().ExpireAllScan(wm)
			}
			compare("advance")
			continue
		}
		ts += int64(rng.Intn(3))
		v := graph.NodeID(rng.Intn(nodes))
		val := int64(rng.Intn(100))
		ev := []graph.Event{{Kind: graph.ContentWrite, Node: v, Value: val, TS: ts}}
		for _, m := range []*core.MultiSystem{heapM, scanM} {
			if _, err := m.Apply(ev, graph.NoAdvance); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _ = heapM.Apply(nil, ts)
	for _, sys := range scanM.Systems() {
		sys.Engine().ExpireAllScan(ts)
	}
	compare("final")
}
