package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
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
// on a maintainable overlay every live node is affected in the new view, so
// the maintained repair inserts each of its readers whole — covered by the
// existing shared partial aggregates where profitable — while reads keep
// flowing and writes wait for the engine's install step only. Overlays
// without incremental maintenance recompile the union from scratch; window
// contents and live subscriptions survive either way. On failure the view is
// rolled back and the remaining views recompiled. Returns the new member's
// view tag.
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
	s.views = append(s.views, view{nbr: nbr, pred: spec.Predicate, tag: tag, live: true})
	var err error
	if s.maintainerLocked() == nil {
		err = s.recompileLocked(nil)
	} else {
		err = s.maintainLocked(s.everyNodeLocked(tag), nil, nil)
	}
	if err != nil {
		s.views[tag].live = false
		return 0, fmt.Errorf("core: merge extension: %w: %w", ErrIncompatibleMerge, errors.Join(err, s.recompileLocked(nil)))
	}
	return tag, nil
}

// retireMember removes member tag's reader view from the merged overlay:
// the view dies and every live node is affected in it, so the maintained
// repair removes its readers (orphan partials are garbage-collected), or a
// recompile rebuilds the remaining views when it cannot. The member's tag is
// never reused. The last live member cannot be retired; tear the System down
// instead. The caller holds the MultiSystem mutex (MultiSystem.Detach does).
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
	if err := s.repairLocked(s.everyNodeLocked(tag), nil, nil); err != nil {
		return fmt.Errorf("core: retire member %d: %w: %w", tag, ErrIncompatibleMerge, err)
	}
	return nil
}

// everyNodeLocked is the affected set of a member attach or retire: every
// live node, in view tag only. Callers hold s.mu.
func (s *System) everyNodeLocked(tag int32) affected {
	a := make(affected, len(s.views))
	s.g.ForEachNode(func(v graph.NodeID) { a.mark(int(tag), v) })
	return a
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
