package core

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/bipartite"
	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// This file is the compile path: legality, overlay construction (or a
// same-shape sibling's Topology), dataflow decisions, and the recompile that
// rebuilds all three when an overlay cannot be repaired in place.

// compileSystem is the one compile path: it builds m's system for q, its
// single view with tag 0. Callers hold m.mu, so a same-shape sibling in m may
// supply the overlay.
func compileSystem(m *MultiSystem, q Query, opts Options) (*System, error) {
	if q.Aggregate == nil {
		return nil, fmt.Errorf("core: query needs an aggregate: %w", ErrIncompatible)
	}
	if q.Neighborhood == nil {
		q.Neighborhood = graph.InNeighbors{}
	}
	if q.Window == nil {
		q.Window = agg.NewTupleWindow(1)
	}
	if opts.Mode == "" {
		opts.Mode = ModeDataflow
	}
	switch opts.Mode {
	case ModeDataflow, ModeAllPush, ModeAllPull:
	default:
		return nil, fmt.Errorf("core: unknown mode %q: %w", opts.Mode, ErrIncompatible)
	}
	if q.Continuous {
		opts.Mode = ModeAllPush
	}
	props := q.Aggregate.Props()
	if opts.Algorithm == "" {
		switch {
		case props.Subtractable:
			opts.Algorithm = construct.AlgVNMN
		case props.DuplicateInsensitive:
			opts.Algorithm = construct.AlgVNMD
		default:
			opts.Algorithm = construct.AlgVNMA
		}
	}
	if err := checkLegality(opts.Algorithm, props); err != nil {
		return nil, err
	}

	s := &System{
		g: m.g, q: q, opts: opts, multi: m,
		views: []view{{nbr: q.Neighborhood, pred: q.Predicate, tag: 0, live: true}},
		cost:  dataflow.ModelFor(q.Aggregate),
	}
	if key, ok := graph.NeighborhoodKey(q.Neighborhood); ok && q.Predicate == nil {
		s.shape = shape{nbr: key, alg: opts.Algorithm, cfg: opts.Construct}
	}
	top, err := s.buildOverlay()
	if err == nil {
		top, err = s.decide(top, nil)
	}
	if err == nil {
		s.eng, err = exec.New(top, s.q.Aggregate, s.q.Window)
	}
	if err != nil {
		return nil, err
	}
	s.adopt()
	return s, nil
}

func checkLegality(alg string, props agg.Properties) error {
	if !construct.KnownAlgorithm(alg) && alg != Baseline {
		return fmt.Errorf("core: unknown algorithm %q: %w", alg, ErrIncompatible)
	}
	switch alg {
	case construct.AlgVNMN:
		if !props.Subtractable {
			return fmt.Errorf("core: %s requires a subtractable aggregate (negative edges): %w", alg, ErrIncompatible)
		}
	case construct.AlgVNMD:
		if !props.DuplicateInsensitive {
			return fmt.Errorf("core: %s requires a duplicate-insensitive aggregate (duplicate paths): %w", alg, ErrIncompatible)
		}
	}
	return nil
}

// buildOverlay returns the Topology of an overlay for the live views over
// the current graph, undecided: a same-shape sibling's, or the flattened
// overlay mine constructs.
func (s *System) buildOverlay() (*overlay.Topology, error) {
	if top := s.cloneSibling(); top != nil {
		return top, nil
	}
	ov, err := s.mine()
	if err != nil {
		return nil, err
	}
	return ov.Flatten(), nil
}

// mine constructs an overlay for the live views over the current graph: the
// UNION bipartite graph of every live view, so on a merged system
// construction mines bicliques — and therefore places shared partial
// aggregation nodes — across member queries wherever their neighborhoods
// overlap. A single-query system's one view is its query.
func (s *System) mine() (*overlay.Overlay, error) {
	s.multi.mined.Add(1)
	members := make([]bipartite.Member, 0, len(s.views))
	for i := range s.views {
		if !s.views[i].live {
			continue
		}
		members = append(members, bipartite.Member{
			Neighborhood: s.views[i].nbr,
			Predicate:    s.views[i].pred,
			Tag:          s.views[i].tag,
		})
	}
	ag := bipartite.BuildUnion(s.g, members)
	if s.opts.Algorithm == Baseline {
		return construct.Baseline(ag), nil
	}
	res, err := construct.Build(s.opts.Algorithm, ag, s.opts.Construct)
	if err != nil {
		return nil, err
	}
	return res.Overlay, nil
}

// cloneSibling returns the engine Topology of a same-shape system of the
// same MultiSystem mined at the graph's current structural version, or nil
// when there is none and the caller must mine. The overlay is a function of
// the shape and the graph alone, and decide overwrites every live decision,
// so deciding the Topology gives what a mine would have, bit for bit.
// Nothing is copied or retained for this: the two engines share every array
// but the decisions, and the sibling's Topology is the cache entry, valid
// until the graph moves (minedAt) or anything restructures it (pristine —
// cleared by afterMaintenance; a system that took a member has no shape to
// match). Callers hold the MultiSystem mutex — every path that reaches
// buildOverlay does — so no two systems ever wait on each other's mu here.
func (s *System) cloneSibling() *overlay.Topology {
	if s.shape == (shape{}) || len(s.views) > 1 {
		return nil
	}
	for _, sib := range *s.multi.systems.Load() {
		if sib == s || sib.shape != s.shape {
			continue
		}
		sib.mu.Lock()
		var top *overlay.Topology
		if sib.pristine && len(sib.views) == 1 && sib.minedAt == s.g.Version() {
			top = sib.eng.Topology()
		}
		sib.mu.Unlock()
		if top != nil {
			s.multi.cloned.Add(1)
			return top
		}
	}
	return nil
}

// windowSizeHint estimates the per-writer window size for costing (§4.2).
func (s *System) windowSizeHint() int {
	n := int(agg.AvgWindowSize(s.q.Window, 1))
	if n < 1 {
		n = 1
	}
	return n
}

// decide returns top with the decisions of the system's decision procedure
// for workload wl (nil: a uniform 1:1 workload). It is the one place
// decisions are made from a workload — compile, recompile and Reoptimize
// all come here — so a fixed-mode system keeps its mode whatever workload
// arrives.
func (s *System) decide(top *overlay.Topology, wl *dataflow.Workload) (*overlay.Topology, error) {
	if wl == nil {
		wl = dataflow.Uniform(s.g.MaxID(), 1, 1)
	}
	f, err := dataflow.Frequencies(top, wl, s.windowSizeHint())
	if err != nil {
		return nil, err
	}
	switch s.opts.Mode {
	case ModeAllPush:
		return dataflow.DecideAll(top, overlay.Push), nil
	case ModeAllPull:
		return dataflow.DecideAll(top, overlay.Pull), nil
	}
	top, _ = dataflow.Partition(top, f, s.cost)
	return top, nil
}

// adopt makes the Topology the engine was just built or rebuilt on — built
// at the graph's current version and decided — the system's overlay. It
// holds all of it, so the maintainer and adaptor of the overlay it replaces
// are dropped, and none is built for the new one until an operation needs
// it (maintainerLocked, adaptorLocked).
func (s *System) adopt() {
	s.minedAt, s.pristine = s.g.Version(), true
	s.maint, s.adaptor, s.adapting = nil, nil, nil
	// Incremental maintenance requires single-path, negative-edge-free
	// overlays; when unavailable, structural updates fall back to
	// recompilation.
	s.maintainable = construct.Maintainable(s.eng.Topology())
}

// Reoptimize re-decides the installed Topology (keeping its structure) for
// a new expected workload with the system's own decision procedure and
// installs the decisions in the engine; a nil wl keeps the last one. Later
// recompiles decide for the same workload.
func (s *System) Reoptimize(wl *dataflow.Workload) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wl != nil {
		s.wl = wl
	}
	top, err := s.decide(s.eng.Topology(), s.wl)
	if err != nil {
		return err
	}
	return s.eng.Rebuild(top, nil)
}

// recompileLocked rebuilds the overlay from scratch (used when incremental
// maintenance is not applicable, e.g. negative-edge overlays) and moves the
// engine onto it. Only the engine's install step holds writes back; overlay
// construction and the dataflow decisions run with ingest flowing. Window
// contents survive — exec.Engine.Rebuild carries each writer's window to its
// new slot, except for the ids in skip, which the structural run that forced
// the recompile deleted and may since have reused — so a recompile answers
// reads exactly like an incrementally repaired overlay would, which is what
// lets shard replicas with independently compiled overlays stay
// content-equivalent under structural churn. On error the system keeps its
// previous overlay.
func (s *System) recompileLocked(skip map[graph.NodeID]bool) error {
	top, err := s.buildOverlay()
	if err == nil {
		top, err = s.decide(top, s.wl)
	}
	if err == nil {
		err = s.eng.Rebuild(top, skip)
	}
	if err != nil {
		return err
	}
	s.adopt()
	s.recompiles.Add(1)
	return nil
}
