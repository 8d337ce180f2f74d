package exec

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// referencePlan builds writer w's closure and reader-touch list the way
// compilePlan did before the plan was flat: one DFS per writer from the
// Topology's live writer list, a per-writer map of net signs, and a slice
// of its own for each.
func referencePlan(top *overlay.Topology) (closures map[overlay.NodeRef][]int32, touches map[overlay.NodeRef][]readerTouch) {
	closures, touches = map[overlay.NodeRef][]int32{}, map[overlay.NodeRef][]readerTouch{}
	for _, w := range top.Writers {
		var apps []int32
		stack := []int32{overlay.PackRef(w, false)}
		for len(stack) > 0 {
			ref, inv := overlay.UnpackRef(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			for _, pe := range top.OutEdges(ref) {
				dst, neg := overlay.UnpackRef(pe)
				if top.Dec[dst] != overlay.Push || top.Dead[dst] {
					continue
				}
				apps = append(apps, overlay.PackRef(dst, inv != neg))
				stack = append(stack, overlay.PackRef(dst, inv != neg))
			}
		}
		closures[w] = apps
		net := map[overlay.NodeRef]int{}
		for _, pe := range apps {
			if ref, neg := overlay.UnpackRef(pe); top.Kind[ref] == overlay.ReaderNode && neg {
				net[ref]--
			} else if top.Kind[ref] == overlay.ReaderNode {
				net[ref]++
			}
		}
		for _, pe := range apps {
			if ref, _ := overlay.UnpackRef(pe); net[ref] != 0 {
				net[ref] = 0
				touches[w] = append(touches[w], readerTouch{ref: ref, tag: top.Tag[ref]})
			}
		}
	}
	return closures, touches
}

// TestCompiledPlanCSR pins the flat plan: on the benchmark graphs under every
// construction algorithm (all-push and with random pull nodes, and with some
// writers and partials removed), and on batchOverlay's negative-edge and
// duplicate-path shapes, every writer's CSR closure and touch list equal the
// per-writer reference entry by entry, every other slot has empty ones, and
// every flat array holds exactly its entries (len == cap).
func TestCompiledPlanCSR(t *testing.T) {
	type shape struct {
		name string
		ov   *overlay.Overlay
	}
	var shapes []shape
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"web", workload.WebGraph(600, 50, 12, 1)},
		{"social", workload.SocialGraph(1000, 10, 1)},
	}
	rng := rand.New(rand.NewSource(1))
	for _, bg := range graphs {
		ag := bipartite.Build(bg.g, graph.InNeighbors{}, nil)
		for _, alg := range []string{"baseline", construct.AlgVNM, construct.AlgVNMA, construct.AlgVNMN, construct.AlgVNMD, construct.AlgIOB} {
			build := func() *overlay.Overlay {
				if alg == "baseline" {
					return construct.Baseline(ag)
				}
				res, err := construct.Build(alg, ag, construct.Config{})
				if err != nil {
					t.Fatal(err)
				}
				return res.Overlay
			}
			name := bg.name + "/" + alg
			shapes = append(shapes,
				shape{name + "/push", decideEach(t, build(), allPush)},
				shape{name + "/mixed", decideEach(t, build(), randomDecisions(rng))})
			ov := decideEach(t, build(), randomDecisions(rng))
			for i, n := 0, ov.Len(); i < n; i++ {
				if k := ov.Node(overlay.NodeRef(i)).Kind; ov.Alive(overlay.NodeRef(i)) &&
					((k == overlay.WriterNode && i%7 == 0) || (k == overlay.PartialNode && i%11 == 0)) {
					if err := ov.RemoveNode(overlay.NodeRef(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			shapes = append(shapes, shape{name + "/removed", ov})
		}
	}
	for _, s := range []string{"neg", "dup"} {
		shapes = append(shapes,
			shape{s + "/push", batchOverlay(t, s, allPush)},
			shape{s + "/mixed", batchOverlay(t, s, randomDecisions(rng))})
	}

	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			p := compilePlan(s.ov.Flatten())
			top := p.top
			for name, fl := range map[string][2]int{
				"closureOff":     {len(p.closureOff), cap(p.closureOff)},
				"closure":        {len(p.closure), cap(p.closure)},
				"pushReadersOff": {len(p.pushReadersOff), cap(p.pushReadersOff)},
				"pushReaders":    {len(p.pushReaders), cap(p.pushReaders)},
				"readable":       {len(p.readable), cap(p.readable)},
			} {
				if fl[0] != fl[1] {
					t.Errorf("%s: len %d, cap %d", name, fl[0], fl[1])
				}
			}
			if len(p.closureOff) != top.N+1 || len(p.pushReadersOff) != top.N+1 {
				t.Fatalf("offsets for %d and %d slots, want %d", len(p.closureOff)-1, len(p.pushReadersOff)-1, top.N)
			}
			closures, touches := referencePlan(top)
			var entries, touched int
			for i := range top.N {
				w := overlay.NodeRef(i)
				gotC, gotT := p.closureOf(w), p.pushReadersOf(w)
				if !slices.Equal(gotC, closures[w]) {
					t.Fatalf("slot %d: closure %v, want %v", w, gotC, closures[w])
				}
				if !slices.Equal(gotT, touches[w]) {
					t.Fatalf("slot %d: touches %v, want %v", w, gotT, touches[w])
				}
				entries, touched = entries+len(gotC), touched+len(gotT)
			}
			if entries != len(p.closure) || touched != len(p.pushReaders) {
				t.Fatalf("writers own %d of %d closure entries and %d of %d touches", entries, len(p.closure), touched, len(p.pushReaders))
			}
			if strings.HasSuffix(s.name, "/push") && touched == 0 {
				t.Fatal("an all-push overlay compiled to no reader touches")
			}
		})
	}
}
