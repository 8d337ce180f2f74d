package simtest

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"

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

// bipartiteCore draws a graph of n nodes whose middle third each hear from
// about three quarters of the first third, over n random edges. Readers
// that share most of their inputs are where VNM_N mines a virtual node
// with negative edges.
func bipartiteCore(rng *rand.Rand, n int) *graph.Graph {
	g := graph.NewWithNodes(n)
	for u := range n / 3 {
		for v := n / 3; v < 2*n/3; v++ {
			if rng.Intn(4) > 0 {
				_ = g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	for range n {
		_ = g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return g
}

// swarm is what a seed draws before its graph and ops (swarm testing:
// Groce et al., ISSTA 2012): a part of the op alphabet and of the
// aggregates, and its own biases. Leaving an op out lets the others pile
// up, so across seeds some runs go deep into the states a fixed mix
// seldom builds.
type swarm struct {
	variant int      // the entry point: 0 the batch spine, 1 an Ingestor, 2 the per-event mutators
	dense   bool     // a bipartite core instead of RandomGraph
	kinds   []Kind   // the control ops, each as often as its weight
	aggs    []string // the aggregates registered
	sub     int      // per cent of registrations subscribed at once
	whole   int      // per cent of subscriptions on every node
	join    int      // per cent of registrations that join a live query's family
	cont    int      // per cent of the others that are Continuous
	zipf    int      // per cent of content batches that are Zipf-hot
}

func drawSwarm(rng *rand.Rand, cfg Config, c Cell) swarm {
	sw := swarm{variant: [...]int{0, 0, 0, 1, 1, 1, 2, 2}[rng.Intn(8)], dense: rng.Intn(8) > 0, kinds: []Kind{Register},
		sub: 50 + rng.Intn(51), whole: 50 + rng.Intn(51), join: rng.Intn(101), cont: 50 + rng.Intn(51), zipf: 25 + rng.Intn(76)}
	for _, k := range append([]Kind{Retire, Subscribe, Unsubscribe}, cfg.Ops...) {
		durable, w := k == Checkpoint || k == Crash || k == WALFault, rng.Intn(4)
		if durable {
			w++ // a durable cell always checkpoints and crashes: recovery is where its bugs live
		}
		for ; w > 0 && (k != ShardFault || c.Shards > 1) && (!durable || c.Durable); w-- {
			sw.kinds = append(sw.kinds, k)
		}
	}
	pool := slices.DeleteFunc(slices.Clone(aggregates), func(a string) bool {
		return c.Algorithm == "vnmn" && slices.Contains([]string{"max", "min", "distinct"}, a) // VNM_N's negative edges need a subtractable aggregate
	})
	for _, n := range rng.Perm(len(pool))[:1+rng.Intn(3)] {
		sw.aggs = append(sw.aggs, pool[n])
	}
	if !slices.ContainsFunc(sw.aggs, func(a string) bool { return !(Spec{Aggregate: a}).Topo() }) {
		sw.aggs = append(sw.aggs, "sum") // a run with content to hear
	}
	return sw
}

// draw is a seed's swarm, graph and op list: Seed checks them, and they
// are a function of the seed alone.
func (cfg Config) draw(c Cell, seed int64) (swarm, *graph.Graph, []Op) {
	rng := rand.New(rand.NewSource(seed))
	sw := drawSwarm(rng, cfg, c)
	g := RandomGraph
	if sw.dense {
		g = bipartiteCore
	}
	gr := g(rng, cfg.Nodes)
	return sw, gr, sw.generate(rng, cfg, c, gr)
}

// Generate draws a swarm and cfg.Steps ops for cell c over initial graph g.
func Generate(rng *rand.Rand, cfg Config, c Cell, g *graph.Graph) []Op {
	return drawSwarm(rng, cfg, c).generate(rng, cfg, c, g)
}

// generate draws the ops. It keeps a model of its own to pick live nodes,
// edges and query slots, so the list is a function of the rng and g alone.
func (sw swarm) generate(rng *rand.Rand, cfg Config, c Cell, g *graph.Graph) []Op {
	gen := &generator{rng: rng, c: c, sw: sw, m: NewModel(g), ts: 1, windows: map[string]int{}}
	var ops []Op
	for len(ops) < cfg.Steps {
		op := Op{Kind: Batch, Close: rng.Intn(3) > 0}
		if len(gen.m.queries) < 2 {
			op.Kind = Register
		} else if rng.Intn(10) < 3 {
			op.Kind = sw.kinds[rng.Intn(len(sw.kinds))]
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
			if rng.Intn(100) < sw.sub {
				ops = append(ops, op)
				op = Op{Kind: Subscribe, Slot: op.Slot, Nodes: gen.nodes()}
			}
		case Retire, Subscribe, Unsubscribe:
			op.Slot = slots[rng.Intn(len(slots))]
			if op.Kind == Retire {
				gen.m.Retire(op.Slot)
			} else if op.Kind == Subscribe {
				op.Nodes = gen.nodes()
			}
		case Checkpoint:
			ops = append(ops, op)
			op = Op{Kind: Crash} // recover from it
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
			if rng.Intn(2) == 0 {
				op.Events = gen.mixed()
			} else {
				op.Events = gen.content()
			}
			for _, ev := range op.Events {
				_ = gen.m.Apply(ev, nil)
			}
		}
		ops = append(ops, op)
	}
	if slices.Contains(sw.kinds, Crash) {
		ops = append(ops, Op{Kind: Crash, N: 1}) // a durable run ends restarting cleanly from its fullest windows
	}
	return ops
}

type generator struct {
	rng     *rand.Rand
	c       Cell
	sw      swarm
	m       *Model
	ts      int64
	slot    int
	windows map[string]int
	hot     [2]NodeID // the Zipf-hot writers
}

// spec draws a query: one joining a live query's aggregate, window and
// continuity at a fresh hop depth, or one of the swarm's aggregates. An
// aggregate keeps one window per seed, so in a merged cell its
// registrations at another hop depth join its family and at the same depth
// are same-shape siblings; in an unmerged cell every registration is a
// family of its own.
func (g *generator) spec() Spec {
	s := Spec{Aggregate: g.sw.aggs[g.rng.Intn(len(g.sw.aggs))], Hops: 1}
	var live []Spec
	for _, slot := range g.m.Slots() {
		if sp := g.m.queries[slot]; !sp.Topo() {
			live = append(live, sp)
		}
	}
	joined := len(live) > 0 && g.rng.Intn(100) < g.sw.join
	if joined {
		s = live[g.rng.Intn(len(live))]
		s.Hops = 3 - live[slices.IndexFunc(live, func(f Spec) bool { return f.family() == s.family() })].Hops
	}
	if s.Family = 0; !g.c.Merged {
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
	if !joined {
		s.Hops, s.Continuous = 1+g.rng.Intn(2), g.rng.Intn(100) < g.sw.cont
	}
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

// hotNode is one of the hot pair, drawn again when one has died.
func (g *generator) hotNode() NodeID {
	if g.hot == [2]NodeID{} || !g.m.Alive(g.hot[0]) || !g.m.Alive(g.hot[1]) {
		g.hot = [2]NodeID{g.writer(), g.writer()}
	}
	return g.hot[g.rng.Intn(2)]
}

// writer draws a live node with an out-edge, so some reader hears it,
// when one of a few draws finds one.
func (g *generator) writer() NodeID {
	v := g.node()
	for i := 0; i < 8 && len(g.m.out[v]) == 0; i++ {
		v = g.node()
	}
	return v
}

// nodes draws a subscription's nodes: nil (every node) for the swarm's
// share, else one to three nodes.
func (g *generator) nodes() []NodeID {
	if g.rng.Intn(100) < g.sw.whole {
		return nil
	}
	out := make([]NodeID, 1+g.rng.Intn(3))
	for i := range out {
		out[i] = g.node()
	}
	return out
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
		g.ts += int64(g.rng.Intn(3))
		ev.TS = g.ts
	}
	return ev
}

// content draws a content-only batch; the swarm's share is Zipf-hot, two
// writers and two values, so a writer's adds and removes cancel, and one
// in eight carries no timestamps at all. The hot pair lives until one of
// them dies, so its time windows slide far enough to wrap.
func (g *generator) content() []graph.Event {
	evs := make([]graph.Event, 1+g.rng.Intn(16))
	zipf, tsless := g.rng.Intn(100) < g.sw.zipf, g.rng.Intn(8) == 0
	for i := range evs {
		if zipf {
			evs[i] = g.write(g.hotNode(), int64(1+g.rng.Intn(2)))
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
			if g.rng.Intn(100) < g.sw.zipf {
				u = g.hotNode()
			}
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

// State is a set of the rare states a run reached: the ones known bugs
// need. Run counts, per state, the seeds of a sweep that reached it.
type State uint32

// The states Run records itself, then those only a Reacher target sees.
const (
	Structural        State = 1 << iota // a batch with a structural event applied
	Burst                               // a batch with two or more structural events applied
	AddedNode                           // a NodeAdd reported its id
	ReusedID                            // ... an id removed before
	MultiHop                            // a structural batch applied beside a 2-hop member of a family
	TopoChurn                           // a structural batch applied beside a topology-valued query
	Heard                               // a subscription heard an Update
	HeardTime                           // a subscription on a time window heard a batch that closed time itself
	Recovered                           // a crash recovered
	Faulted                             // a log fault recovered
	RetiredStays                        // a recovery followed a retire
	Mutators                            // a batch applied through the per-event mutators
	Recompiled                          // a structural batch recompiled an overlay
	RecompiledSub                       // ... an overlay with a live subscription
	TaggedWhole                         // a whole-query subscription on a non-zero tag of a family heard an Update
	Cancelled                           // a write reached a subscribed push reader by signed paths summing to zero
	ReplayedClose                       // a recovery replayed a close past its checkpoint's
	CheckpointedClose                   // a recovery loaded a checkpoint of closed time
	WrappedCheckpoint                   // a recovery loaded a checkpoint of a time window whose ring wrapped past its end
	numStates         = iota
)

var stateNames = [numStates]string{"structural", "burst", "addedNode", "reusedID", "multiHop", "topoChurn", "heard",
	"heardTime", "recovered", "faulted", "retiredStays", "mutators", "recompiled", "recompiledSub", "taggedWhole",
	"cancelled", "replayedClose", "checkpointedClose", "wrappedCheckpoint"}

func (s State) String() string {
	var out []string
	for i, name := range stateNames {
		if s&(1<<i) != 0 {
			out = append(out, name)
		}
	}
	return strings.Join(out, "|")
}

// Reacher is a Target that records the states only it can see, from any
// goroutine, and reports them when the run ends.
type Reacher interface{ Reached() State }

// Reach is a sweep's reach table: how many of its seeds reached each state.
type Reach struct {
	mu    sync.Mutex
	seeds int
	n     [numStates]int
}

func (r *Reach) add(s State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seeds++
	for i := range r.n {
		if s&(1<<i) != 0 {
			r.n[i]++
		}
	}
}

func (r *Reach) String() string {
	var b strings.Builder
	for i, name := range stateNames {
		fmt.Fprintf(&b, "\n  %-18s %3d of %d", name, r.n[i], r.seeds)
	}
	return b.String()
}

// Gate fails a sweep of all seeds, none failing, in which a state is
// reached by fewer than least of them; a smaller sweep passes.
func (r *Reach) Gate(seeds, least int) error {
	var errs []error
	for i, name := range stateNames {
		if r.seeds == seeds && r.n[i] < least {
			errs = append(errs, fmt.Errorf("%s reached by %d of %d seeds, want %d", name, r.n[i], seeds, least))
		}
	}
	return errors.Join(errs...)
}
