// Package construct implements EAGr's overlay construction algorithms
// (paper §3.2): the VNM family (VNM with fixed chunk size, VNM_A with
// adaptive chunk sizes, VNM_N with negative edges, VNM_D with
// duplicate-insensitive edge reuse) and the incremental overlay builder IOB,
// plus the incremental maintenance operations of §3.3.
package construct

import (
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// Algorithm names, used by the CLI and the benchmark harness.
const (
	AlgVNM  = "vnm"
	AlgVNMA = "vnma"
	AlgVNMN = "vnmn"
	AlgVNMD = "vnmd"
	AlgIOB  = "iob"
)

// KnownAlgorithm reports whether alg names one of the construction
// algorithms Build accepts.
func KnownAlgorithm(alg string) bool {
	switch alg {
	case AlgVNM, AlgVNMA, AlgVNMN, AlgVNMD, AlgIOB:
		return true
	default:
		return false
	}
}

// Result is the outcome of overlay construction.
type Result struct {
	Overlay *overlay.Overlay
	// SharingIndexHistory records the sharing index after each iteration
	// (the series plotted in Figure 8).
	SharingIndexHistory []float64
	// IterTimes records the wall-clock duration of each iteration (the
	// series behind Figure 10(a)).
	IterTimes []time.Duration
	// BenefitBySize aggregates, for the last iteration, the total benefit
	// of mined bicliques keyed by reader-set size (the B^s_i statistic
	// driving VNM_A's chunk adaptation).
	BenefitBySize map[int]int
}

// Config collects the knobs shared by the construction algorithms.
type Config struct {
	// Iterations is the number of improvement passes (paper Figure 8 uses
	// 10-20 for VNM variants and ~5 for IOB).
	Iterations int
	// ChunkSize is the reader group size for VNM (default 100; the
	// initial size for VNM_A).
	ChunkSize int
	// NegK1/NegK2 enable VNM_N: a reader may be inserted along up to
	// NegK1 paths using at most NegK2 negative edges each. Requires a
	// subtractable aggregate.
	NegK1, NegK2 int
	// OverlapPct is VNM_D's reader-group overlap percentage. Requires a
	// duplicate-insensitive aggregate.
	OverlapPct int
	// Shingles is the number of min-hash shingles per reader (default 2).
	Shingles int
	// AscendingRank sorts FP-tree items by ascending frequency, the
	// literal reading of §3.2.1's text. The default (descending) follows
	// the paper's own Figure 3 example and the standard FP-tree
	// convention; ascending finds almost no bicliques on heavy-tailed
	// graphs. Exposed for the ablation experiment only.
	AscendingRank bool
}

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 100
	}
	if c.Shingles <= 0 {
		c.Shingles = 2
	}
	return c
}

// Build runs the named algorithm over AG and returns the constructed
// overlay. The cfg's variant-specific fields are forced to match the named
// algorithm (e.g. AlgVNM disables adaptation and negative edges): every
// variant but VNM adapts its chunk size, and only VNM_D re-serves mined
// edges.
func Build(alg string, ag *bipartite.AG, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	switch alg {
	case AlgVNM, AlgVNMA:
		cfg.NegK1, cfg.NegK2, cfg.OverlapPct = 0, 0, 0
		return buildVNM(ag, cfg, alg == AlgVNMA, false)
	case AlgVNMN:
		if cfg.NegK1 <= 0 {
			cfg.NegK1 = 2
		}
		if cfg.NegK2 <= 0 {
			cfg.NegK2 = 5
		}
		cfg.OverlapPct = 0
		return buildVNM(ag, cfg, true, false)
	case AlgVNMD:
		cfg.NegK1, cfg.NegK2 = 0, 0
		if cfg.OverlapPct <= 0 {
			cfg.OverlapPct = 20
		}
		return buildVNM(ag, cfg, true, true)
	case AlgIOB:
		return buildIOB(ag, cfg)
	default:
		return nil, fmt.Errorf("construct: unknown algorithm %q", alg)
	}
}

// Baseline returns the trivial overlay with direct writer→reader edges and
// no partial aggregation nodes — the structure used by the all-push and
// all-pull baselines of §5.
func Baseline(ag *bipartite.AG) *overlay.Overlay {
	ov := overlay.New(ag.NumEdges())
	for _, w := range ag.AllNodes {
		ov.AddWriter(w)
	}
	for _, r := range ag.Readers {
		rr := ov.AddReader(r.Tag, r.Node)
		for _, w := range r.Inputs {
			// Writers always exist: AddWriter is idempotent.
			_ = ov.AddEdge(ov.AddWriter(w), rr, false)
		}
	}
	return ov
}

// AffectedByEdge computes the readers whose neighborhoods may change when
// edge u→v is added or removed, for the neighborhood functions the library
// ships. It only identifies candidates; callers diff the candidates' actual
// input lists against the overlay state.
func AffectedByEdge(g *graph.Graph, n graph.Neighborhood, u, v graph.NodeID) []graph.NodeID {
	switch nn := n.(type) {
	case graph.InNeighbors:
		return []graph.NodeID{v}
	case graph.OutNeighbors:
		return []graph.NodeID{u}
	case graph.KHopIn:
		// N(r) changes for v and every node reachable from v within
		// K-1 hops (they may now reach u within K).
		seen := map[graph.NodeID]bool{v: true}
		frontier := []graph.NodeID{v}
		out := []graph.NodeID{v}
		for hop := 1; hop < nn.K; hop++ {
			var next []graph.NodeID
			for _, x := range frontier {
				for _, y := range g.Out(x) {
					if !seen[y] {
						seen[y] = true
						next = append(next, y)
						out = append(out, y)
					}
				}
			}
			frontier = next
		}
		return out
	case graph.Filtered:
		return AffectedByEdge(g, nn.Base, u, v)
	default:
		// Unknown neighborhood: fall back to all readers (callers
		// should prefer the known functions for dynamic graphs).
		return g.Nodes()
	}
}
