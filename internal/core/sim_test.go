package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/construct"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/simtest"
)

// coreSim checks a MultiSystem, the write path under every Session, against
// the brute-force model of internal/simtest: its one-event and mixed
// batches, merged and unmerged families, tuple and time windows, IOB and
// VNM_N overlays, and on autotune cells a Rebalance after every batch.
// Topology-valued queries live in internal/topo, and subscriptions and
// durability in the root package, so this target declines them.
var coreSim = simtest.Config{
	Package: "./internal/core/",
	Unsupported: func(c simtest.Cell) string {
		if c.Durable || c.HTTP || c.Shards > 1 {
			return "a MultiSystem is one in-memory shard; the root package and the fleets run the rest"
		}
		return ""
	},
	Ops: []simtest.Kind{simtest.Rebalance, simtest.Reoptimize},
	Open: func(_ testing.TB, c simtest.Cell, _ int, g *graph.Graph) simtest.Target {
		return &multiTarget{c: c, m: NewMulti(g), atts: map[int]*Attachment{}}
	},
	Nodes: 15, Steps: 60,
}

// TestMaintenanceChurnManySeeds and TestStructuralChurnOracle run the
// simulator's IOB cells, whose structural churn goes through the
// maintainer (§3.3), decision repair and the engine install: 30 seeds of
// 400 ops each.
func TestMaintenanceChurnManySeeds(t *testing.T) {
	long := coreSim
	long.Steps = 400
	for seed := int64(1); seed <= 30; seed++ {
		c := simtest.Cell{Shards: 1, Algorithm: "iob", Merged: seed%2 == 0, TimeWindow: seed%3 == 0, Autotune: seed%4 == 1}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { t.Parallel(); long.Seed(t, c, seed) })
	}
}

// On iob some structural batch must repair the overlay in place, on vnmn
// some must recompile it.
func TestStructuralChurnOracle(t *testing.T) {
	for alg, seed := range map[string]int64{"iob": 31, "vnmn": 3} {
		t.Run(alg, func(t *testing.T) {
			cfg, mt := coreSim, (*multiTarget)(nil)
			cfg.Open = func(t testing.TB, c simtest.Cell, variant int, g *graph.Graph) simtest.Target {
				mt = coreSim.Open(t, c, variant, g).(*multiTarget)
				return mt
			}
			cfg.Seed(t, simtest.Cell{Shards: 1, Merged: true, Algorithm: alg}, seed)
			if mt.repaired == 0 && alg == "iob" || mt.recompiled == 0 && alg == "vnmn" {
				t.Fatalf("%d structural batches repaired in place, %d recompiled: the seed no longer checks the %s path",
					mt.repaired, mt.recompiled, alg)
			}
		})
	}
}

// multiTarget is a MultiSystem as the simulator drives it.
type multiTarget struct {
	simtest.Target // subscriptions: declined
	c              simtest.Cell
	m              *MultiSystem
	atts           map[int]*Attachment
	// The structural batches that recompiled some overlay, and the others.
	recompiled, repaired int
}

func (mt *multiTarget) Entry() (bool, bool) { return false, false }

func (mt *multiTarget) Apply(evs []graph.Event, closeAt int64) ([]graph.NodeID, error) {
	before := mt.recompiles()
	ids, err := mt.m.Apply(evs, closeAt)
	if slices.ContainsFunc(evs, graph.Event.IsStructural) {
		if mt.recompiles() > before {
			mt.recompiled++
		} else {
			mt.repaired++
		}
	}
	if mt.c.Autotune && err == nil {
		_, err = mt.m.Rebalance()
	}
	return ids, err
}

func (mt *multiTarget) recompiles() (n int64) {
	for _, att := range mt.atts {
		n += att.System().Stats().Recompiles
	}
	return n
}

// Register attaches the query to its family, keyed as the Session keys it.
func (mt *multiTarget) Register(slot int, sp simtest.Spec) error {
	a, err := agg.Parse(sp.Aggregate)
	if err != nil {
		return simtest.ErrUnsupported // a topology-valued aggregate
	}
	q, opts := Query{Aggregate: a, Continuous: sp.Continuous}, Options{Algorithm: mt.c.Algorithm,
		Construct: construct.Config{Iterations: 5 + sp.Family}}
	if sp.WindowTime > 0 {
		q.Window = agg.NewTimeWindow(sp.WindowTime)
	} else if sp.WindowTuples > 0 {
		q.Window = agg.NewTupleWindow(sp.WindowTuples)
	}
	if sp.Hops > 1 {
		q.Neighborhood = graph.KHopIn{K: sp.Hops}
	}
	family := fmt.Sprintf("%s|%d|%d|%t|%d", sp.Aggregate, sp.WindowTuples, sp.WindowTime, sp.Continuous, sp.Family)
	att, err := mt.m.AttachMerged(fmt.Sprintf("%s|%d|%d", family, sp.Hops, slot), family, q, opts)
	mt.atts[slot] = att
	return err
}

func (mt *multiTarget) Retire(slot int) error {
	defer delete(mt.atts, slot)
	return mt.atts[slot].Detach()
}

func (mt *multiTarget) Read(slot int, v graph.NodeID) (simtest.Result, error) {
	r, err := mt.atts[slot].Read(v)
	if errors.Is(err, exec.ErrUnknownNode) {
		err = simtest.ErrUnknownNode
	}
	return simtest.Result(r), err
}

func (mt *multiTarget) Covered(slot int, v graph.NodeID) bool { return mt.atts[slot].Covered(v) }

func (mt *multiTarget) Subscribe(int, []graph.NodeID) error { return simtest.ErrUnsupported }

func (mt *multiTarget) Updates(int) []simtest.Update { return nil }

func (mt *multiTarget) Do(op simtest.Op) error {
	switch op.Kind {
	case simtest.Rebalance:
		_, err := mt.m.Rebalance()
		return err
	case simtest.Reoptimize:
		for _, att := range mt.atts {
			if err := att.System().Reoptimize(nil); err != nil {
				return err
			}
		}
		return nil
	}
	return simtest.ErrUnsupported
}

func (mt *multiTarget) Close() {}
