package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// This file is merge-family membership: member views addressed by tag in
// one shared overlay, and their online attach and retire.

// errMergeFull is the internal capacity signal: the family cannot take
// another member (maxFamilyViews reached). Callers fall back to compiling a
// fresh system instead of surfacing an error.
var errMergeFull = fmt.Errorf("merge family full: %w", ErrIncompatibleMerge)

// maxFamilyViews bounds the member count of one merged overlay; beyond it a
// fresh family is opened (per-write reader fan-out grows with every member,
// so unbounded families would trade the sharing win back away).
const maxFamilyViews = 64

// MemberSpec describes one member query's reader population in a merged
// family: the neighborhood and predicate that may differ between members,
// while the aggregate, window, and mode are shared by the family's base
// Query.
type MemberSpec struct {
	Neighborhood graph.Neighborhood
	Predicate    graph.Predicate
}

// view is one member query's compiled reader view inside a System. tag
// names its readers in the shared overlay (a reader is identified by tag
// and data-graph node); retired views keep their slot (tags are never
// reused) so live handles' tags stay stable.
type view struct {
	nbr  graph.Neighborhood
	pred graph.Predicate
	tag  int32
	live bool
}

// addMember extends the merged overlay with one more member query ONLINE:
// on a maintainable overlay the new member's readers are inserted one by
// one through the incremental builder — covered by the existing shared
// partial aggregates where profitable — while reads keep flowing and writes
// wait for the engine's install step only. Overlays without incremental
// maintenance recompile the union from scratch; window contents and live
// subscriptions survive either way. Returns the new member's view tag.
//
// A single-query System converts to a merged one on its first addMember;
// its existing readers are tag 0's, so conversion adds no work. The caller
// holds the MultiSystem mutex (MultiSystem.AttachMerged does).
func (s *System) addMember(spec MemberSpec) (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nbr := spec.Neighborhood
	if nbr == nil {
		nbr = graph.InNeighbors{}
	}
	if len(s.views) >= maxFamilyViews {
		return 0, errMergeFull
	}
	tag := int32(len(s.views))
	vw := view{nbr: nbr, pred: spec.Predicate, tag: tag, live: true}
	s.views = append(s.views, vw)
	if s.maintainerLocked() == nil {
		if err := s.recompileLocked(nil); err != nil {
			s.views[tag].live = false
			return 0, fmt.Errorf("core: merged recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return tag, nil
	}
	var insertErr error
	s.g.ForEachNode(func(v graph.NodeID) {
		if insertErr != nil {
			return
		}
		if vw.pred != nil && !vw.pred(s.g, v) {
			return
		}
		insertErr = s.maint.AddReader(tag, v, nbr.Select(s.g, v))
	})
	if insertErr == nil {
		insertErr = s.afterMaintenance()
	}
	if insertErr != nil {
		// Roll back by recompiling from the remaining live views: the
		// half-inserted view is already marked dead, and the rebuild
		// discards the partially-extended overlay wholesale (no point
		// sweeping its readers out one by one first).
		s.views[tag].live = false
		if err := s.recompileLocked(nil); err != nil {
			return 0, fmt.Errorf("core: merge rollback recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return 0, fmt.Errorf("core: merge extension: %w: %w", ErrIncompatibleMerge, insertErr)
	}
	return tag, nil
}

// retireMember removes member tag's reader view from the merged overlay —
// online on maintainable overlays (its readers leave one by one and orphan
// partials are garbage-collected), via recompile otherwise. The member's
// tag is never reused. The last live member cannot be retired; tear the
// System down instead. The caller holds the MultiSystem mutex
// (MultiSystem.Detach does).
func (s *System) retireMember(tag int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(tag) >= len(s.views) || !s.views[tag].live {
		return fmt.Errorf("core: retire member %d: %w", tag, ErrDetached)
	}
	if s.liveViewsLocked() == 1 {
		return fmt.Errorf("core: cannot retire the last member: %w", ErrIncompatibleMerge)
	}
	s.views[tag].live = false
	if s.maintainerLocked() == nil {
		if err := s.recompileLocked(nil); err != nil {
			return fmt.Errorf("core: retire recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return nil
	}
	var nodes []graph.NodeID
	s.ov.ForEachNode(func(_ overlay.NodeRef, n *overlay.Node) {
		if n.Kind == overlay.ReaderNode && n.Tag == tag {
			nodes = append(nodes, n.GID)
		}
	})
	for _, v := range nodes {
		if err := s.maint.RemoveReader(tag, v); err != nil {
			return fmt.Errorf("core: retire member %d: %w: %w", tag, ErrIncompatibleMerge, err)
		}
	}
	if err := s.afterMaintenance(); err != nil {
		return fmt.Errorf("core: retire member %d: %w: %w", tag, ErrIncompatibleMerge, errors.Join(err, s.recompileLocked(nil)))
	}
	return nil
}

// liveViewsLocked counts the live member views; callers hold s.mu.
func (s *System) liveViewsLocked() int {
	live := 0
	for i := range s.views {
		if s.views[i].live {
			live++
		}
	}
	return live
}
