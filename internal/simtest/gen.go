package simtest

import (
	"maps"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// aggregates is the register axis: every built-in aggregate the model
// recomputes, an approximate one checked against the reference, and the
// topology-valued aggregates.
var aggregates = []string{"sum", "count", "avg", "max", "min", "stddev", "topk(3)", "distinct", "distinct~",
	"density", "triangles", "wedges", "ego-betweenness"}

// RandomGraph draws a directed graph of n nodes and about 3n edges.
func RandomGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.NewWithNodes(n)
	for range 3 * n {
		_ = g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return g
}

// Generate draws cfg.Steps ops for cell c over initial graph g. It keeps a
// model of its own to pick live nodes, edges and query slots, so the list
// is a function of the seed and g alone.
func Generate(rng *rand.Rand, cfg Config, c Cell, g *graph.Graph) []Op {
	gen := &generator{rng: rng, c: c, m: NewModel(g), ts: 1, windows: map[string]int{}}
	kinds := []Kind{Register, Retire, Subscribe, Unsubscribe}
	for _, k := range cfg.Ops {
		durable := k == Checkpoint || k == Crash || k == WALFault
		if (k != ShardFault || c.Shards > 1) && (!durable || c.Durable) {
			kinds = append(kinds, k)
		}
	}
	var ops []Op
	for len(ops) < cfg.Steps {
		op := Op{Kind: Batch, Close: rng.Intn(3) > 0}
		if len(gen.m.queries) < 2 {
			op.Kind = Register
		} else if rng.Intn(10) < 3 {
			op.Kind = kinds[rng.Intn(len(kinds))]
		}
		slots := gen.m.Slots()
		switch op.Kind {
		case Register:
			if len(slots) >= 6 {
				continue
			}
			op.Slot, op.Spec = gen.slot, gen.spec()
			gen.m.Register(op.Slot, op.Spec)
			gen.slot++
		case Retire, Subscribe, Unsubscribe:
			op.Slot = slots[rng.Intn(len(slots))]
			if op.Kind == Retire {
				gen.m.Retire(op.Slot)
			}
			for i := rng.Intn(4); op.Kind == Subscribe && i > 0; i-- {
				op.Nodes = append(op.Nodes, gen.node()) // a restricted subscription
			}
		case Crash:
			op.N = rng.Intn(2) // 1: a clean restart
		case WALFault:
			op.N = 1 + rng.Intn(8)
		case ShardFault:
			op.Shard = rng.Intn(c.Shards)
			op.Events = gen.content()
			for _, v := range gen.m.Nodes() {
				if cfg.Owner(v, c.Shards) == op.Shard {
					op.Events = append(op.Events, gen.write(v, 1))
					break
				}
			}
		case Batch:
			if op.Events = gen.content(); rng.Intn(2) == 0 {
				op.Events = gen.mixed()
			}
			for _, ev := range op.Events {
				_ = gen.m.Apply(ev, nil)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

type generator struct {
	rng     *rand.Rand
	c       Cell
	m       *Model
	ts      int64
	slot    int
	windows map[string]int
}

// spec draws a query. An aggregate keeps one window per seed, so in a
// merged cell its registrations at another hop depth join its family and
// at the same depth are same-shape siblings; in an unmerged cell every
// registration is a family of its own.
func (g *generator) spec() Spec {
	s := Spec{Aggregate: aggregates[g.rng.Intn(len(aggregates))], Hops: 1}
	for g.c.Algorithm == "vnmn" && slices.Contains([]string{"max", "min", "distinct"}, s.Aggregate) {
		s.Aggregate = aggregates[g.rng.Intn(len(aggregates))] // VNM_N's negative edges need a subtractable aggregate
	}
	if !g.c.Merged {
		s.Family = g.slot + 1
	}
	if s.Topo() {
		if s.Aggregate == "ego-betweenness" && g.c.TimeWindow {
			s.WindowTime = 10 // changes no value: the view reads live
		}
		return s
	}
	w, ok := g.windows[s.Aggregate]
	if !ok {
		w = 1 + g.rng.Intn(4)
		if g.c.TimeWindow {
			w = 5 + g.rng.Intn(30)
		}
		g.windows[s.Aggregate] = w
	}
	if g.c.TimeWindow {
		s.WindowTime = int64(w)
	} else {
		s.WindowTuples = w
	}
	s.Hops, s.Continuous = 1+g.rng.Intn(2), g.rng.Intn(4) == 0
	return s
}

// node draws a live node, now and then any id up to one past the largest:
// maybe dead, so the event is a skip.
func (g *generator) node() NodeID {
	if nodes := g.m.Nodes(); len(nodes) > 0 && g.rng.Intn(40) > 0 {
		return nodes[g.rng.Intn(len(nodes))]
	}
	return NodeID(g.rng.Intn(int(g.m.MaxID()) + 1))
}

// write draws a content event: mostly at or just past stream time, one in
// ten ts-less (the entry point stamps it), one in twenty late.
func (g *generator) write(v NodeID, val int64) graph.Event {
	ev := graph.Event{Kind: graph.ContentWrite, Node: v, Value: val}
	switch p := g.rng.Intn(20); {
	case p < 2:
	case p < 3:
		ev.TS = max(1, g.ts-int64(g.rng.Intn(20)))
	default:
		g.ts += int64(g.rng.Intn(4))
		ev.TS = g.ts
	}
	return ev
}

// content draws a content-only batch; one in four is Zipf-hot, two writers
// and two values, so a writer's adds and removes cancel, and one in eight
// carries no timestamps at all.
func (g *generator) content() []graph.Event {
	evs := make([]graph.Event, 1+g.rng.Intn(16))
	hot, zipf, tsless := [2]NodeID{g.node(), g.node()}, g.rng.Intn(4) == 0, g.rng.Intn(8) == 0
	for i := range evs {
		if zipf {
			evs[i] = g.write(hot[g.rng.Intn(2)], int64(1+g.rng.Intn(2)))
		} else {
			evs[i] = g.write(g.node(), int64(g.rng.Intn(20)-4))
		}
		if tsless {
			evs[i].TS = 0
		}
	}
	return evs
}

// mixed draws content with edge and node churn, including a removal
// followed by a NodeAdd that reuses the id and an edge onto it.
func (g *generator) mixed() []graph.Event {
	var evs []graph.Event
	for n := 1 + g.rng.Intn(12); len(evs) < n; {
		u, w := g.node(), g.node()
		var ts int64
		if g.rng.Intn(2) == 0 {
			ts = g.ts
		}
		switch p := g.rng.Intn(20); {
		case p < 8:
			evs = append(evs, g.write(u, int64(g.rng.Intn(20)-4)))
		case p < 12:
			evs = append(evs, graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: w, TS: ts})
		case p < 15:
			if out := slices.Sorted(maps.Keys(g.m.out[u])); len(out) > 0 && g.rng.Intn(4) > 0 {
				w = out[g.rng.Intn(len(out))]
			}
			evs = append(evs, graph.Event{Kind: graph.EdgeRemove, Node: u, Peer: w, TS: ts})
		case p < 17:
			evs = append(evs, graph.Event{Kind: graph.NodeAdd, TS: ts})
		case len(g.m.alive) > 8:
			evs = append(evs, graph.Event{Kind: graph.NodeRemove, Node: u, TS: ts})
			if p == 19 {
				evs = append(evs, graph.Event{Kind: graph.NodeAdd, TS: ts}, graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: w, TS: ts})
			}
		}
	}
	return evs
}
