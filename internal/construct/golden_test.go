package construct

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// overlaySignature condenses an overlay into "nodes edges hash": the hash
// covers every node's (kind, gid) in ref order and the sorted
// (from, to, sign) edge list, so two overlays with one signature are the
// same graph with the same node numbering.
func overlaySignature(ov *overlay.Overlay) string {
	type edge struct {
		from, to overlay.NodeRef
		neg      bool
	}
	h := fnv.New64a()
	var edges []edge
	ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		fmt.Fprintf(h, "n%d:%d:%d;", ref, n.Kind, n.GID)
		for _, e := range n.In {
			edges = append(edges, edge{e.Peer, ref, e.Negative})
		}
	})
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return !a.neg && b.neg
	})
	for _, e := range edges {
		fmt.Fprintf(h, "e%d:%d:%t;", e.from, e.to, e.neg)
	}
	return fmt.Sprintf("%d nodes %d edges %016x", ov.NumNodes(), ov.NumEdges(), h.Sum64())
}

// benchGraphs are the data graphs of the repository benchmark (bench/gen.go:
// graphSeed = 1; feed_mixed runs on the web graph, notify_open and
// durable_ingest on the social graph).
var benchGraphs = []struct {
	name string
	gen  func() *graph.Graph
}{
	{"web", func() *graph.Graph { return workload.WebGraph(600, 50, 12, 1) }},
	{"social", func() *graph.Graph { return workload.SocialGraph(1000, 10, 1) }},
}

// goldenSignatures were captured from the map-based kernel at commit ed7f7ce
// (the parent of the flat-kernel rewrite), which produced them on every one
// of 20 runs. A change here means construction no longer produces the same
// overlay — never update these to make a kernel change pass.
var goldenSignatures = map[string]string{
	"web/vnm":     "1433 nodes 5309 edges c48b295c4f67cf7a",
	"web/vnma":    "1329 nodes 5834 edges b83f4e731da9bb12",
	"web/vnmn":    "1259 nodes 3718 edges 11205e2911dcb1b8", // SI 0.5105
	"web/vnmd":    "1326 nodes 5907 edges 34031a9c7dce4f89",
	"social/vnm":  "2020 nodes 9898 edges dfe3c9da97e75061",
	"social/vnma": "2004 nodes 9922 edges 1690a1804b7418d2",
	"social/vnmn": "2005 nodes 9899 edges 3c8a3202a501afc5",
	"social/vnmd": "2003 nodes 9921 edges fbeb2dd335bf9dfe",
}

func TestOverlayGolden(t *testing.T) {
	for _, bg := range benchGraphs {
		ag := bipartite.Build(bg.gen(), graph.InNeighbors{}, nil)
		for _, alg := range []string{AlgVNM, AlgVNMA, AlgVNMN, AlgVNMD} {
			name := bg.name + "/" + alg
			res, err := Build(alg, ag, Config{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := overlaySignature(res.Overlay)
			if want, ok := goldenSignatures[name]; !ok {
				t.Errorf("%s: no golden signature; got %q (SI %.4f)", name, got, res.Overlay.SharingIndex())
			} else if got != want {
				t.Errorf("%s: overlay signature %q, want %q", name, got, want)
			}
		}
	}
}

// BenchmarkConstruct is one Build of a benchmark graph's overlay under the
// two algorithms `auto` picks (VNM_N for subtractable aggregates, VNM_D for
// duplicate-insensitive ones); the graph and AG are built outside the timer.
func BenchmarkConstruct(b *testing.B) {
	for _, bg := range benchGraphs {
		ag := bipartite.Build(bg.gen(), graph.InNeighbors{}, nil)
		for _, alg := range []string{AlgVNMN, AlgVNMD} {
			b.Run(bg.name+"/"+alg, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(alg, ag, Config{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBuildDeterministic: construction is a pure function of its input. The
// same AG built 20 times under every algorithm yields one overlay. The
// k1=5 case is the one the map-based kernel visibly failed (Fig. 11(b)'s
// web-eu column flipped between two sharing indexes from run to run): the
// more paths a reader joins, the more often a tie between sibling paths
// decides which.
func TestBuildDeterministic(t *testing.T) {
	runs := 20
	if testing.Short() {
		runs = 5
	}
	ag := bipartite.Build(workload.WebGraph(1500, 50, 12, 5), graph.InNeighbors{}, nil)
	for _, c := range []struct {
		name, alg string
		cfg       Config
	}{
		{"vnm", AlgVNM, Config{Iterations: 4}},
		{"vnma", AlgVNMA, Config{Iterations: 4}},
		{"vnmn", AlgVNMN, Config{Iterations: 4}},
		{"vnmn/k1=5", AlgVNMN, Config{Iterations: 4, NegK1: 5}},
		{"vnmd", AlgVNMD, Config{Iterations: 4}},
		{"iob", AlgIOB, Config{Iterations: 1}},
	} {
		var first string
		for i := 0; i < runs; i++ {
			res, err := Build(c.alg, ag, c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			sig := overlaySignature(res.Overlay)
			if i == 0 {
				first = sig
			} else if sig != first {
				t.Errorf("%s: run %d built %q, run 0 built %q", c.name, i, sig, first)
				break
			}
		}
	}
}

// TestThawRoundTrip: a Topology is the overlay at rest. On every benchmark
// graph and algorithm — with a few decisions flipped to push, a few readers
// removed (dead slots) and a second query tag added — Thaw then Flatten
// gives the identical Topology, and the thawed overlay saves the original's
// bytes, in the original's lineage. The same edits applied afterwards to the
// thawed overlay and to a Clone of the original keep them byte-equal, so no
// node's edge list aliases another's.
func TestThawRoundTrip(t *testing.T) {
	save := func(ov *overlay.Overlay) []byte {
		var buf bytes.Buffer
		if err := ov.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, bg := range benchGraphs {
		g := bg.gen()
		ag := bipartite.Build(g, graph.InNeighbors{}, nil)
		for _, alg := range []string{AlgIOB, AlgVNM, AlgVNMA, AlgVNMN, AlgVNMD} {
			name := bg.name + "/" + alg
			res, err := Build(alg, ag, Config{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ov := res.Overlay
			for ref := overlay.NodeRef(0); int(ref) < ov.Len(); ref += 3 {
				if ov.Node(ref).Kind != overlay.WriterNode {
					ov.Node(ref).Dec = overlay.Push
				}
			}
			for v := graph.NodeID(0); v < 40; v += 7 {
				if err := ov.RemoveNode(ov.Reader(0, v)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			ov.GCOrphans()
			for _, w := range g.In(3) {
				if err := ov.AddEdge(ov.Writer(w), ov.AddReader(1, 3), false); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}

			top := ov.Flatten()
			th := overlay.Thaw(top)
			if !reflect.DeepEqual(th.Flatten(), top) {
				t.Fatalf("%s: Flatten(Thaw(t)) differs from t", name)
			}
			if !bytes.Equal(save(th), save(ov)) {
				t.Fatalf("%s: the thawed overlay saves other bytes", name)
			}
			if th.Lineage() != ov.Lineage() || th.NumNodes() != ov.NumNodes() || th.NumEdges() != ov.NumEdges() {
				t.Fatalf("%s: lineage/nodes/edges %d/%d/%d, want %d/%d/%d", name,
					th.Lineage(), th.NumNodes(), th.NumEdges(), ov.Lineage(), ov.NumNodes(), ov.NumEdges())
			}
			if got, want := th.ComputeStats(), ov.ComputeStats(); got != want {
				t.Fatalf("%s: stats %+v, want %+v", name, got, want)
			}

			twin := ov.Clone()
			for _, o := range []*overlay.Overlay{twin, th} {
				r := o.Reader(0, 2)
				in := o.Node(r).In
				if err := o.RemoveEdge(in[0].Peer, r); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := o.AddEdge(o.AddWriter(1000), r, false); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := o.AddEdge(o.Writer(1000), o.Reader(0, 4), false); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if !bytes.Equal(save(th), save(twin)) {
				t.Fatalf("%s: the same edits left the thawed overlay and a clone apart", name)
			}
			if !reflect.DeepEqual(overlay.Thaw(top).Flatten(), top) {
				t.Fatalf("%s: editing a thawed overlay changed the topology it came from", name)
			}
		}
	}
}

// goldenSaveDigests are FNV-64a digests of overlay.Save's bytes for the
// overlays of goldenSignatures, captured while assemble still grew every
// edge list one AddEdge at a time. Never update these to make a kernel
// change pass. Unlike a signature they see the order
// of the edges within each node's list, which is the order a node's inputs
// are folded in.
var goldenSaveDigests = map[string]string{
	"web/vnm":     "e3ccc9b68d43e9ff",
	"web/vnma":    "4f9348048d998d77",
	"web/vnmn":    "96d680f5acb926a9",
	"web/vnmd":    "db35340e15c54107",
	"social/vnm":  "dfb69df85af8dc2b",
	"social/vnma": "9b529d5e0a14e683",
	"social/vnmn": "dd59b6984c962a45",
	"social/vnmd": "3e3ab99d2c8c4243",
}

// TestAssembledEdgeListsCapped: a freshly built overlay saves the bytes it
// always did, and its edge lists, carved from shared arenas, are each capped
// at their length — one more edge at every node, in and out, leaves it
// byte-equal and Flatten-equal to a Clone given the same edges.
func TestAssembledEdgeListsCapped(t *testing.T) {
	save := func(ov *overlay.Overlay) []byte {
		var buf bytes.Buffer
		if err := ov.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, bg := range benchGraphs {
		ag := bipartite.Build(bg.gen(), graph.InNeighbors{}, nil)
		for _, alg := range []string{AlgVNM, AlgVNMA, AlgVNMN, AlgVNMD} {
			name := bg.name + "/" + alg
			res, err := Build(alg, ag, Config{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ov := res.Overlay
			h := fnv.New64a()
			h.Write(save(ov))
			if got, want := fmt.Sprintf("%016x", h.Sum64()), goldenSaveDigests[name]; got != want {
				t.Errorf("%s: Save digest %s, want %s", name, got, want)
			}

			twin := ov.Clone()
			for _, o := range []*overlay.Overlay{ov, twin} {
				n := o.Len()
				w, r := o.AddWriter(1<<20), o.AddReader(0, 1<<20)
				for ref := overlay.NodeRef(0); int(ref) < n; ref++ {
					switch o.Node(ref).Kind {
					case overlay.WriterNode:
						err = o.AddEdge(ref, r, false)
					case overlay.ReaderNode:
						err = o.AddEdge(w, ref, false)
					default:
						if err = o.AddEdge(w, ref, true); err == nil {
							err = o.AddEdge(ref, r, false)
						}
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
			if !bytes.Equal(save(ov), save(twin)) {
				t.Fatalf("%s: one edge more per node left the built overlay and its clone apart", name)
			}
			if !reflect.DeepEqual(ov.Flatten(), twin.Flatten()) {
				t.Fatalf("%s: one edge more per node left the built overlay's topology and its clone's apart", name)
			}
		}
	}
}
