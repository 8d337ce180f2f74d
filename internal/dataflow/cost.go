// Package dataflow makes the push/pull pre-computation decisions for an
// overlay graph (paper §4): it propagates push/pull frequencies, models
// per-operation costs H(k)/L(k), solves the Difference-Maximizing Partition
// problem optimally via pruning + s-t min-cut, splits nodes for partial
// pre-computation, and adapts decisions as observed workloads drift.
package dataflow

import (
	"math"

	"repro/internal/agg"
)

// CostModel supplies the average cost of one push (incremental update) and
// one pull (on-demand computation) at an aggregation node with k inputs —
// the H(k) and L(k) functions of §4.2.
type CostModel interface {
	// PushCost is H(k).
	PushCost(k int) float64
	// PullCost is L(k).
	PullCost(k int) float64
}

// ConstLinear is the canonical model for subtractable scalar aggregates
// such as SUM and COUNT: H(k) = 1, L(k) = k.
type ConstLinear struct{}

// PushCost implements CostModel.
func (ConstLinear) PushCost(int) float64 { return 1 }

// PullCost implements CostModel.
func (ConstLinear) PullCost(k int) float64 { return float64(max(k, 1)) }

// LogLinear models priority-queue maintained aggregates such as MAX/MIN:
// H(k) = 1 + log2(k), L(k) = k.
type LogLinear struct{}

// PushCost implements CostModel.
func (LogLinear) PushCost(k int) float64 { return 1 + math.Log2(float64(max(k, 2))) }

// PullCost implements CostModel.
func (LogLinear) PullCost(k int) float64 { return float64(max(k, 1)) }

// perMerge is WeightedLinear's per-merge weight d.
const perMerge = 4

// WeightedLinear models holistic aggregates with heavy per-element merges
// such as TOP-K frequency maps: H(k) = d, L(k) = d·k for a per-merge
// weight d of 4.
type WeightedLinear struct{}

// PushCost implements CostModel.
func (WeightedLinear) PushCost(int) float64 { return perMerge }

// PullCost implements CostModel.
func (WeightedLinear) PullCost(k int) float64 { return perMerge * float64(max(k, 1)) }

// Scaled wraps a model and scales the two costs independently; it is the
// one way to scale a model, used to explore the push:pull cost-ratio axis
// of Figure 13(c).
type Scaled struct {
	Base       CostModel
	PushFactor float64
	PullFactor float64
}

// PushCost implements CostModel.
func (s Scaled) PushCost(k int) float64 { return orOne(s.PushFactor) * s.Base.PushCost(k) }

// PullCost implements CostModel.
func (s Scaled) PullCost(k int) float64 { return orOne(s.PullFactor) * s.Base.PullCost(k) }

// ModelFor returns the default cost model for a built-in aggregate (paper
// §4.2: SUM-like aggregates get H∝1, L∝k; MAX-like get H∝log k, L∝k).
func ModelFor(a agg.Aggregate) CostModel {
	switch a.Name() {
	case "max", "min":
		return LogLinear{}
	case "topk", "distinct":
		return WeightedLinear{}
	default:
		return ConstLinear{}
	}
}

func orOne(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return x
}
