// Package topo implements topology-valued aggregates: standing ego-centric
// queries whose input is the graph's edge churn rather than the content
// stream. Where internal/agg answers "aggregate F over the CONTENT written
// by v's neighborhood", topo answers "aggregate F over the STRUCTURE of v's
// ego network" — the density of the neighborhood, the triangles and wedges
// through v, v's ego-betweenness.
//
// The ego network of v is undirected and 1-hop: its members are v and every
// node u with an edge in either direction between u and v, and its edges
// are the (undirected views of the) graph edges among members. Self-loops
// never count.
//
// Every value is exact at every read; nothing is scheduled. The Engine's
// Mirror keeps the undirected adjacency and the triangle count of every ego
// exactly on every edge delta: an undirected pair {x,y} appearing or leaving
// moves the triangle count of x, y and every ego adjacent to both (the
// classic streaming-triangle update), so density, triangles and wedges read
// in O(1). Ego-betweenness is computed over the ego's current network at
// each read and each delivery.
//
// A value is a pure function of the current topology, which is what lets
// durable sessions rebuild topo state from the recovered graph with no new
// WAL record types, and a recovered replica read exactly like one that
// never crashed.
package topo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/graph"
)

// Scale is the fixed-point scale of ratio-valued results: density and
// ego-betweenness are reported in millionths (a density of 0.5 reads as
// Result.Scalar == 500000). Integer micro-units keep shard replicas and
// recovery replays bit-identical — no float summation order to disagree on.
const Scale = 1_000_000

// Aggregate is one topology-valued aggregate: a pure function from an ego's
// current undirected neighborhood structure (as held by a Mirror) to a
// finalized result. Implementations must be stateless — per-query state
// (subscriber sets) lives in the Engine's views.
type Aggregate interface {
	// Name is the canonical spec spelling.
	Name() string
	// Value computes the aggregate for ego v. The caller guarantees v is
	// alive and holds the mirror read-locked.
	Value(m *Mirror, v graph.NodeID) agg.Result
}

var (
	// builtins is the fixed table of topology aggregates, keyed by
	// canonical name. Aggregates are stateless, so one value serves every
	// view; user-defined aggregates register with internal/agg instead.
	builtins = map[string]Aggregate{
		"density":         Density{},
		"triangles":       Triangles{},
		"wedges":          Wedges{},
		"ego-betweenness": EgoBetweenness{},
	}
	// aliases maps accepted spec spellings onto canonical names, so the
	// spec parser and the compile key agree on one identity per aggregate.
	aliases = map[string]string{
		"triangle":        "triangles",
		"tri":             "triangles",
		"wedge":           "wedges",
		"egobetweenness":  "ego-betweenness",
		"ego_betweenness": "ego-betweenness",
		"betweenness":     "ego-betweenness",
		"ebc":             "ego-betweenness",
	}
)

// Names returns the sorted list of canonical aggregate names (sorted so
// /stats and error messages are deterministic, matching agg.Names).
func Names() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Spec is a parsed topology-aggregate spec: the canonical name. A window is
// NOT part of the spec — it arrives separately (QuerySpec.WindowTime) and
// joins only the persisted key.
type Spec struct {
	Name string
}

// String renders the canonical spelling; Parse(s.String()) round-trips.
func (s Spec) String() string { return s.Name }

// Key canonicalizes a spec plus its window into the key a session persists
// for the query. No value depends on the window, so the Engine shares one
// view per Key(0). The "topo|" prefix keeps the key space disjoint from the
// numeric-aggregate family keys.
func (s Spec) Key(window int64) string {
	return fmt.Sprintf("topo|%s|wt=%d", s.Name, window)
}

// Parse resolves a topology-aggregate spec of the form "name" or
// "name(0)". Spellings are case-insensitive and aliases collapse to the
// canonical name ("triangle" == "triangles", "ebc" == "ego-betweenness"),
// so equal-semantics specs map to one Spec — the parse→Key closed loop the
// fuzz target pins. Unknown names are errors; so are malformed parameter
// forms and nonzero parameters, which no aggregate takes.
func Parse(spec string) (Spec, error) {
	name := strings.ToLower(strings.TrimSpace(spec))
	param := 0
	if i := strings.IndexByte(name, '('); i >= 0 {
		if !strings.HasSuffix(name, ")") {
			return Spec{}, fmt.Errorf("topo: malformed spec %q", spec)
		}
		p, err := strconv.Atoi(strings.TrimSpace(name[i+1 : len(name)-1]))
		if err != nil {
			return Spec{}, fmt.Errorf("topo: bad parameter in %q: %v", spec, err)
		}
		param = p
		name = strings.TrimSpace(name[:i])
	}
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	if _, ok := builtins[name]; !ok {
		return Spec{}, fmt.Errorf("topo: unknown aggregate %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if param != 0 {
		// Reject rather than silently ignore, so "density(3)" can't shadow
		// a future meaning.
		return Spec{}, fmt.Errorf("topo: aggregate %q takes no parameter", name)
	}
	return Spec{Name: name}, nil
}

// New returns the aggregate a parsed Spec names.
func New(s Spec) (Aggregate, error) {
	a, ok := builtins[s.Name]
	if !ok {
		return nil, fmt.Errorf("topo: unknown aggregate %q", s.Name)
	}
	return a, nil
}

// Density is the ego-network density of v: the fraction of its neighbor
// pairs that are themselves connected, 2·T(v) / (k·(k−1)) for k = |N(v)|
// neighbors and T(v) triangles through v, in millionths (Scale). Egos with
// fewer than two neighbors have no pairs and report 0.
type Density struct{}

func (Density) Name() string { return "density" }

func (Density) Value(m *Mirror, v graph.NodeID) agg.Result {
	k := int64(m.Degree(v))
	if k < 2 {
		return agg.Result{Valid: true}
	}
	// tri/wedges in millionths; integer arithmetic keeps replicas exact.
	return agg.Result{Scalar: m.Triangles(v) * 2 * Scale / (k * (k - 1)), Valid: true}
}

// Triangles counts the triangles through v: neighbor pairs of v that are
// themselves connected, maintained incrementally by the Mirror.
type Triangles struct{}

func (Triangles) Name() string { return "triangles" }

func (Triangles) Value(m *Mirror, v graph.NodeID) agg.Result {
	return agg.Result{Scalar: m.Triangles(v), Valid: true}
}

// Wedges counts the wedges (open or closed two-paths) centered at v:
// k·(k−1)/2 for k = |N(v)|.
type Wedges struct{}

func (Wedges) Name() string { return "wedges" }

func (Wedges) Value(m *Mirror, v graph.NodeID) agg.Result {
	k := int64(m.Degree(v))
	return agg.Result{Scalar: k * (k - 1) / 2, Valid: true}
}

// EgoBetweenness is the Everett–Borgatti ego-betweenness of v, computed
// over v's current undirected ego network: for every non-adjacent neighbor
// pair {a,b}, every shortest a–b path inside the ego network has length two
// and runs through a common neighbor, one of which is always v itself — so
// v's share of the pair is 1/(1+c) for c common neighbors of a and b within
// N(v). The result sums ⌊Scale/(1+c)⌋ over pairs: fixed-point millionths,
// summed in integers so the value is independent of iteration order. It is
// computed on each call, over v's current ego network.
type EgoBetweenness struct{}

func (EgoBetweenness) Name() string { return "ego-betweenness" }

func (EgoBetweenness) Value(m *Mirror, v graph.NodeID) agg.Result {
	return agg.Result{Scalar: m.egoBetweenness(v), Valid: true}
}
