package core

import (
	"errors"
	"slices"

	"repro/internal/construct"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/overlay"
)

// This file is incremental structural maintenance (§3.3): the one repair
// that a structural run, a member attach and a member retire all end in, the
// hooks a run fills it from, and the install that finishes it.

// AddGraphEdge applies a structural edge addition (S_G event) to the data
// graph and incrementally repairs the overlay. Like RemoveGraphEdge it is a
// one-event MultiSystem.Apply on the system's MultiSystem, so every system
// sharing the graph is repaired too.
func (s *System) AddGraphEdge(u, v graph.NodeID) error {
	_, err := s.multi.Apply([]graph.Event{{Kind: graph.EdgeAdd, Node: u, Peer: v}}, graph.NoAdvance)
	return err
}

// RemoveGraphEdge applies a structural edge deletion.
func (s *System) RemoveGraphEdge(u, v graph.NodeID) error {
	_, err := s.multi.Apply([]graph.Event{{Kind: graph.EdgeRemove, Node: u, Peer: v}}, graph.NoAdvance)
	return err
}

// affected is, per member view (indexed by tag), the readers whose
// neighbourhoods a structural change may have altered. The repair diffs each
// against the final graph, so supersets and since-removed readers are
// harmless.
type affected []map[graph.NodeID]bool

// mark folds readers into view tag's set.
func (a affected) mark(tag int, readers ...graph.NodeID) {
	if a[tag] == nil {
		a[tag] = make(map[graph.NodeID]bool, len(readers))
	}
	for _, r := range readers {
		a[tag][r] = true
	}
}

// newAffected opens a structural run's affected sets, one per view. The
// run holds the MultiSystem mutex, which also covers member attach and
// retire, so the views it opens them for are the views it repairs.
func (s *System) newAffected() affected {
	s.mu.Lock()
	defer s.mu.Unlock()
	return make(affected, len(s.views))
}

// edgeTouched folds the readers an edge change u→v touches into a, per live
// view. For removals call it BEFORE the graph mutation (the affected walk
// needs the edge present); for additions, after. A system without a
// maintainer collects nothing: its run ends in a recompile.
func (s *System) edgeTouched(a affected, u, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.maintainable {
		return
	}
	for i, vw := range s.views {
		if vw.live {
			a.mark(i, construct.AffectedByEdge(s.g, vw.nbr, u, v)...)
		}
	}
}

// nodeRemovalTouched is edgeTouched for every edge incident to v; call it
// BEFORE the graph removes v.
func (s *System) nodeRemovalTouched(a affected, v graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.maintainable {
		return
	}
	for i, vw := range s.views {
		if !vw.live {
			continue
		}
		for _, u := range s.g.Out(v) {
			a.mark(i, construct.AffectedByEdge(s.g, vw.nbr, v, u)...)
		}
		for _, u := range s.g.In(v) {
			a.mark(i, construct.AffectedByEdge(s.g, vw.nbr, u, v)...)
		}
	}
}

// repairLocked ends a structural run or a member retire: the maintained
// repair, or one recompile from the final graph when the overlay admits no
// maintainer or the repair fails. The recompile carries every window over
// except removed's, whose ids the run may have reused. A failed repair's
// error is surfaced even when the recompile succeeds, so the caller knows
// the fast path degraded. Callers hold s.mu.
func (s *System) repairLocked(a affected, removed map[graph.NodeID]bool, added []graph.NodeID) error {
	if s.maintainerLocked() == nil {
		return s.recompileLocked(removed)
	}
	if err := s.maintainLocked(a, removed, added); err != nil {
		return errors.Join(err, s.recompileLocked(removed))
	}
	return nil
}

// maintainLocked is the one maintained repair (§3.3). It takes what changed
// — the affected readers per view, the node ids removed and the ids added —
// and leaves the overlay answering as one compiled from the live views over
// the final graph would:
//
//  1. RemoveNode drops each removed id's writer and readers, so a reused id
//     starts from nothing.
//  2. Each added id alive at the end gets a writer — a compiled overlay has
//     one for every node, so a write to an edgeless node stays in its
//     window — and its readers are affected in every live view.
//  3. Each affected reader is diffed against the final graph: readers of a
//     retired view and readers the predicate no longer admits leave, a
//     missing reader arrives whole (an attached view's, an added node's)
//     and an existing one gains and loses inputs.
//  4. The overlay is installed once.
//
// An error leaves the engine on its previous plan and the caller must
// recompile. Callers hold s.mu and have a maintainer.
func (s *System) maintainLocked(a affected, removed map[graph.NodeID]bool, added []graph.NodeID) error {
	for _, v := range sortedIDs(removed) {
		if err := s.maint.RemoveNode(v); err != nil {
			return err
		}
	}
	for _, v := range added {
		if !s.g.Alive(v) {
			continue
		}
		s.maint.AddWriter(v)
		for i, vw := range s.views {
			if vw.live {
				a.mark(i, v)
			}
		}
	}
	for i := range s.views {
		for _, r := range sortedIDs(a[i]) {
			if err := s.repairReaderLocked(&s.views[i], r); err != nil {
				return err
			}
		}
	}
	return s.afterMaintenance()
}

// sortedIDs returns m's keys in id order, so equal structural streams repair
// alike whatever the maps' iteration order.
func sortedIDs(m map[graph.NodeID]bool) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// repairReaderLocked diffs view vw's reader of r (under the view's own
// neighborhood function and predicate) against the final graph and applies
// the difference through the maintainer.
func (s *System) repairReaderLocked(vw *view, r graph.NodeID) error {
	if !s.g.Alive(r) {
		return nil // RemoveNode took its readers
	}
	if !vw.live || vw.pred != nil && !vw.pred(s.g, r) {
		// A compiled overlay has no reader of a retired view, nor one the
		// predicate refuses.
		return s.maint.RemoveReader(vw.tag, r)
	}
	want := vw.nbr.Select(s.g, r)
	ov := s.maint.Overlay()
	ref := ov.Reader(vw.tag, r)
	if ref == overlay.NoNode {
		// Empty-input readers included: compile keeps those queryable too.
		return s.maint.AddReader(vw.tag, r, want)
	}
	wantSet := make(map[graph.NodeID]bool, len(want))
	for _, w := range want {
		wantSet[w] = true
	}
	have := ov.InputSet(ref)
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
	slices.Sort(adds)
	slices.Sort(dels)
	if err := s.maint.RemoveReaderInputs(vw.tag, r, dels); err != nil {
		return err
	}
	return s.maint.AddReaderInputs(vw.tag, r, adds)
}

// maintainerLocked returns the system's maintainer, building it over a Thaw
// of the engine's Topology if no operation has yet, or nil when the
// installed overlay admits none and structural changes must recompile. The
// maintainer's overlay is the system's only live overlay. Callers hold s.mu.
func (s *System) maintainerLocked() *construct.Maintainer {
	if !s.maintainable {
		return nil
	}
	if s.maint == nil {
		s.thaws++
		var err error
		s.maint, err = construct.NewMaintainer(overlay.Thaw(s.eng.Topology()))
		s.maintainable = err == nil
	}
	return s.maint
}

// afterMaintenance installs the maintainer's overlay in the engine after it
// changed shape. An error means the engine is still on its previous plan and
// the caller must fall back to a recompile. The installed Topology holds the
// system's decisions, so they are copied over the slots it has: slots are
// never reused, and the new ones keep the maintainer's defaults. Either
// branch then sorts the overlay, which is the check that maintenance left it
// acyclic. Restructuring may have inserted pull-annotated partials beneath
// push nodes; the repair pass restores the decision invariant before state
// is rebuilt. All-push systems (notably continuous queries, whose Subscribe
// coverage must stay complete) re-force every node to push, since
// maintenance creates new readers pull-annotated.
func (s *System) afterMaintenance() error {
	s.pristine = false
	top := s.maint.Overlay().Flatten()
	copy(top.Dec, s.eng.Topology().Dec)
	var err error
	if s.opts.Mode == ModeAllPush {
		if _, err = top.TopoOrder(); err == nil {
			top = dataflow.DecideAll(top, overlay.Push)
		}
	} else {
		top, err = dataflow.RepairDecisions(top)
	}
	if err != nil {
		return err
	}
	return s.eng.Rebuild(top, nil)
}
