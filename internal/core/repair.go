package core

import (
	"errors"
	"sort"

	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// This file is incremental structural maintenance (§3.3): the System's
// structural mutators, the repair batch a MultiSystem structural run fills
// per system, and the install that ends it.

// AddGraphEdge applies a structural edge addition (S_G event) to the data
// graph and incrementally repairs the overlay. Like the other structural
// mutators below it is a one-event MultiSystem.Apply on the system's
// MultiSystem, so every system sharing the graph is repaired too.
func (s *System) AddGraphEdge(u, v graph.NodeID) error {
	_, err := s.multi.Apply([]graph.Event{{Kind: graph.EdgeAdd, Node: u, Peer: v}}, graph.NoAdvance)
	return err
}

// RemoveGraphEdge applies a structural edge deletion.
func (s *System) RemoveGraphEdge(u, v graph.NodeID) error {
	_, err := s.multi.Apply([]graph.Event{{Kind: graph.EdgeRemove, Node: u, Peer: v}}, graph.NoAdvance)
	return err
}

// AddGraphNode adds a node to the data graph and registers it with the
// overlay (initially with no edges).
func (s *System) AddGraphNode() (graph.NodeID, error) {
	added, err := s.multi.Apply([]graph.Event{{Kind: graph.NodeAdd}}, graph.NoAdvance)
	return added[0], err
}

// RemoveGraphNode deletes a node and its incident edges.
func (s *System) RemoveGraphNode(v graph.NodeID) error {
	_, err := s.multi.Apply([]graph.Event{{Kind: graph.NodeRemove, Node: v}}, graph.NoAdvance)
	return err
}

// repairBatch accumulates one coalesced structural run against this system:
// the union of affected readers per member view, plus whether anything in
// the run forces a full recompile. The batch methods are graph-mutation-free
// — they consult or repair the overlay but never touch the data graph — so
// a MultiSystem hosting several overlays over ONE shared graph mutates the
// graph exactly once per event and fans the repair out to every system.
// They are the ONLY structural repair path: a single structural operation
// (a one-event MultiSystem.Apply, which is what System.AddGraphEdge is) is a
// batch of one, and a mixed-stream structural run of N events ends in exactly one
// applyRepairBatch — one decision repair and one engine install instead of
// N, with a reader touched by several events diffed once.
//
// The batch methods run under the MultiSystem mutex, which also covers
// member attach and retire, so the views a batch was opened for are the
// views it finishes with; each takes s.mu for its own overlay access.
type repairBatch struct {
	// affected is the per-view union of readers whose neighborhoods the
	// run's edge/node events touched; repairViewLocked diffs each against
	// the final graph, so supersets and stale (since-removed) readers are
	// harmless.
	affected  []map[graph.NodeID]bool
	recompile bool
	touched   bool
	// removed records every node id this run deleted, whether or not the
	// id was later reused by an add: if the run degrades to a recompile,
	// the engine rebuild must not carry their windows onto the reused ids.
	removed map[graph.NodeID]bool
	// err collects maintainer failures that degraded the batch to a
	// recompile; applyRepairBatch surfaces them even when the recompile
	// succeeds.
	err error
}

// beginRepairBatch opens a structural batch sized to the current views.
func (s *System) beginRepairBatch() *repairBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &repairBatch{affected: make([]map[graph.NodeID]bool, len(s.views))}
}

// markAffectedLocked folds readers into view i's affected set.
func (b *repairBatch) markAffectedLocked(i int, readers []graph.NodeID) {
	if b.affected[i] == nil {
		b.affected[i] = make(map[graph.NodeID]bool, len(readers))
	}
	for _, r := range readers {
		b.affected[i][r] = true
	}
}

// batchEdgeTouched folds the readers an edge change u→v touches into the
// batch, per member view. For removals call it BEFORE the graph mutation
// (the affected walk needs the edge present); for additions, after.
func (s *System) batchEdgeTouched(b *repairBatch, u, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.recompile || !s.maintainable {
		b.recompile = true
		return
	}
	for i := range s.views {
		if !s.views[i].live {
			continue
		}
		b.markAffectedLocked(i, construct.AffectedByEdge(s.g, s.views[i].nbr, u, v))
	}
}

// batchNodeRemovalAffected folds the pre-removal affected reader sets of
// removing v into the batch; call it BEFORE the graph mutation.
func (s *System) batchNodeRemovalAffected(b *repairBatch, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.recompile || !s.maintainable {
		b.recompile = true
		return
	}
	for i := range s.views {
		if !s.views[i].live {
			continue
		}
		nbr := s.views[i].nbr
		for _, u := range s.g.Out(v) {
			b.markAffectedLocked(i, construct.AffectedByEdge(s.g, nbr, v, u))
		}
		for _, u := range s.g.In(v) {
			b.markAffectedLocked(i, construct.AffectedByEdge(s.g, nbr, u, v))
		}
		delete(b.affected[i], v)
	}
}

// batchNodeAdded registers a freshly added graph node with the overlay —
// the maintainer half of nodeAdded, with the engine republish deferred to
// applyRepairBatch. Maintainer failures degrade to the batch's single
// recompile (which rebuilds the overlay from the final graph wholesale).
func (s *System) batchNodeAdded(b *repairBatch, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.recompile || s.maintainerLocked() == nil {
		b.recompile = true
		return
	}
	s.maint.AddWriter(v)
	for i := range s.views {
		vw := &s.views[i]
		if !vw.live {
			continue
		}
		if vw.pred != nil && !vw.pred(s.g, v) {
			continue
		}
		if err := s.maint.AddReader(vw.tag, v, nil); err != nil {
			b.recompile = true
			b.err = errors.Join(b.err, err)
			return
		}
	}
}

// batchNodeRemoved sweeps a removed node's writer and per-view readers out
// of the overlay — the maintainer half of nodeRemoved, with the affected
// repair and engine republish deferred to applyRepairBatch. Call it AFTER
// the graph mutation and after batchNodeRemovalAffected.
func (s *System) batchNodeRemoved(b *repairBatch, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.touched = true
	if b.removed == nil {
		b.removed = make(map[graph.NodeID]bool)
	}
	b.removed[v] = true
	if b.recompile || s.maintainerLocked() == nil {
		b.recompile = true
		return
	}
	// RemoveNode drops the writer and every view's reader of v.
	if err := s.maint.RemoveNode(v); err != nil {
		b.recompile = true
		b.err = errors.Join(b.err, err)
	}
}

// applyRepairBatch finishes a structural run: every affected reader of
// every view is diffed against the final graph once, then the repaired
// overlay is installed in the engine once — or, when anything in the run
// demanded it (non-maintainable overlay, maintainer failure), one full
// recompile replaces the whole repair. A batch that saw
// no structural event is a no-op.
func (s *System) applyRepairBatch(b *repairBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !b.touched {
		return nil
	}
	// Any recompile below (forced by the batch, or the fallback when an
	// incremental repair fails partway) carries window content over, minus
	// the nodes this run removed.
	if b.recompile || s.maintainerLocked() == nil {
		// b.err carries any maintainer failure that forced this recompile;
		// surface it even when the rebuild succeeds.
		return errors.Join(b.err, s.recompileLocked(b.removed))
	}
	var err error
	for i := range s.views {
		if !s.views[i].live || len(b.affected[i]) == 0 {
			continue
		}
		list := make([]graph.NodeID, 0, len(b.affected[i]))
		for r := range b.affected[i] {
			list = append(list, r)
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		if err = s.repairViewLocked(&s.views[i], list); err != nil {
			break
		}
	}
	if err == nil {
		err = s.afterMaintenance()
	}
	if err != nil {
		// The incremental repair failed partway, or the repaired overlay
		// could not be installed and the engine is still on its previous
		// plan; a recompile restores a consistent overlay from the final
		// graph. Surface the error even when the recompile succeeds, so the
		// caller knows the fast path degraded.
		return errors.Join(err, s.recompileLocked(b.removed))
	}
	return nil
}

// repairViewLocked diffs each affected reader's neighborhood (under the
// member view's own neighborhood function and predicate) against the
// overlay and applies the deltas through the maintainer. The caller runs
// afterMaintenance once all views are repaired.
func (s *System) repairViewLocked(vw *view, affected []graph.NodeID) error {
	for _, r := range affected {
		if !s.g.Alive(r) {
			continue
		}
		if vw.pred != nil && !vw.pred(s.g, r) {
			// The predicate no longer admits r: its reader (if any) must
			// go, or this view would diverge from a freshly compiled one.
			if err := s.maint.RemoveReader(vw.tag, r); err != nil {
				return err
			}
			continue
		}
		want := vw.nbr.Select(s.g, r)
		wantSet := make(map[graph.NodeID]bool, len(want))
		for _, w := range want {
			wantSet[w] = true
		}
		ref := s.ov.Reader(vw.tag, r)
		if ref == overlay.NoNode {
			// Newly admitted (or never materialized) reader: insert it
			// whole through the incremental builder, empty-input readers
			// included — compile keeps those queryable too.
			if err := s.maint.AddReader(vw.tag, r, want); err != nil {
				return err
			}
			continue
		}
		have := s.ov.InputSet(ref)
		var adds, dels []graph.NodeID
		for w := range wantSet {
			if have[w] == 0 {
				adds = append(adds, w)
			}
		}
		for w := range have {
			if !wantSet[w] {
				dels = append(dels, w)
			}
		}
		sort.Slice(adds, func(i, j int) bool { return adds[i] < adds[j] })
		sort.Slice(dels, func(i, j int) bool { return dels[i] < dels[j] })
		if len(dels) > 0 {
			if err := s.maint.RemoveReaderInputs(vw.tag, r, dels); err != nil {
				return err
			}
		}
		if len(adds) > 0 {
			if err := s.maint.AddReaderInputs(vw.tag, r, adds); err != nil {
				return err
			}
		}
	}
	return nil
}

// maintainerLocked returns the system's maintainer, building the live
// overlay it maintains first if no operation has yet, or nil when the
// installed overlay admits none and structural changes must recompile.
// Callers hold s.mu.
func (s *System) maintainerLocked() *construct.Maintainer {
	if !s.maintainable {
		return nil
	}
	s.thawLocked()
	return s.maint
}

// afterMaintenance installs the overlay in the engine after it changed
// shape. An error means the engine is still on its previous plan and the
// caller must fall back to a recompile. Either branch first sorts the
// overlay, which is the check that maintenance left it acyclic.
// Restructuring may have inserted pull-annotated partials beneath push
// nodes; the repair pass restores the decision invariant before state is
// rebuilt. All-push systems (notably continuous queries, whose Subscribe
// coverage must stay complete) re-force every node to push, since
// maintenance creates new readers pull-annotated.
func (s *System) afterMaintenance() error {
	s.pristine = false
	if s.opts.Mode == ModeAllPush {
		if _, err := s.ov.TopoOrder(); err != nil {
			return err
		}
		dataflow.DecideAll(s.ov, overlay.Push)
	} else if _, err := dataflow.RepairDecisions(s.ov); err != nil {
		return err
	}
	// The adaptor's per-node arrays are sized for the overlay it was built
	// from; maintenance may have added nodes (partial splits, merged-family
	// member insertion), so rebuild it or the next Rebalance would observe
	// refs it has no slots for.
	s.adaptor = dataflow.NewAdaptor(s.ov, s.cost)
	return s.eng.Rebuild(s.ov, s.q.Window, nil)
}
