package core

import (
	"testing"

	"repro/internal/construct"
	"repro/internal/graph"
)

// TestRepairReusedAndEdgelessNodes: the maintained repair on a two-view IOB
// family, read against a brute-force recompute after every batch. One batch
// removes v, re-adds it (the id is reused) and wires it in, so v must
// restart with an empty window and fresh readers: the removal has to reach
// the overlay before the affected readers are diffed. Later an added node
// with no edges is written to and only then wired in, so its writer must
// exist from the batch that added it. Neither may recompile.
func TestRepairReusedAndEdgelessNodes(t *testing.T) {
	g := multiRing(12)
	specs := []MemberSpec{{Neighborhood: graph.InNeighbors{}}, {Neighborhood: graph.KHopIn{K: 2}}}
	sys, atts := attachFamily(t, g, specs, Options{Algorithm: construct.AlgIOB})
	latest := map[graph.NodeID]int64{} // each live node's window (sum over a tuple window of 1)
	var ts int64
	apply := func(evs ...graph.Event) []graph.NodeID {
		t.Helper()
		ids, err := sys.multi.Apply(evs, graph.NoAdvance)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			switch ev.Kind {
			case graph.ContentWrite:
				latest[ev.Node] = ev.Value
			case graph.NodeRemove:
				delete(latest, ev.Node)
			}
		}
		return ids
	}
	write := func(v graph.NodeID, value int64) graph.Event {
		ts++
		return graph.Event{Kind: graph.ContentWrite, Node: v, Value: value, TS: ts}
	}
	check := func(when string) {
		t.Helper()
		for tag, att := range atts {
			g.ForEachNode(func(r graph.NodeID) {
				var want int64
				for _, w := range specs[tag].Neighborhood.Select(g, r) {
					want += latest[w]
				}
				if got, err := att.Read(r); err != nil || got.Scalar != want {
					t.Fatalf("%s: view %d read(%d) = %v, %v; brute force says %d", when, tag, r, got, err, want)
				}
			})
		}
		if n := sys.Stats().Recompiles; n != 0 {
			t.Fatalf("%s: %d recompiles, want the overlay repaired in place", when, n)
		}
	}

	var writes []graph.Event
	for v := range graph.NodeID(12) {
		writes = append(writes, write(v, int64(10+v)))
	}
	apply(writes...)
	check("compiled")

	const v = graph.NodeID(5)
	ids := apply(graph.Event{Kind: graph.NodeRemove, Node: v}, graph.Event{Kind: graph.NodeAdd},
		graph.Event{Kind: graph.EdgeAdd, Node: v, Peer: 9})
	if len(ids) != 1 || ids[0] != v {
		t.Fatalf("NodeAdd allocated %v, want the reused id %d", ids, v)
	}
	check("v removed, re-added and wired in by one batch")
	apply(write(v, 40))
	check("write to the reused id")

	u := apply(graph.Event{Kind: graph.NodeAdd})[0]
	check("edgeless node added")
	apply(write(u, 100))
	check("write to the edgeless node")
	apply(graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: 3})
	check("edge from the written node")
}
