package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// This file is merge-family membership: member views addressed by tag in
// one shared overlay, and their online attach and retire.

// errMergeFull is the internal capacity signal: the family cannot take
// another member (tag space exhausted for its stride). Callers fall back to
// compiling a fresh system instead of surfacing an error.
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
// namespaces its readers in the shared overlay (reader GID = tag*stride +
// node); retired views keep their slot (tags are never reused) so live
// handles' tags stay stable.
type view struct {
	nbr  graph.Neighborhood
	pred graph.Predicate
	tag  int32
	live bool
}

// strideFor picks the reader-GID stride for a merged overlay over g: the
// next power of two with at least 2x headroom over the current id space, so
// moderate graph growth never forces a re-stride recompile.
func strideFor(g *graph.Graph) graph.NodeID {
	stride := graph.NodeID(1024)
	for int(stride) < 2*(g.MaxID()+1) {
		stride <<= 1
	}
	return stride
}

// viewCapacity bounds the member count for a stride: every encoded reader
// GID (tag*stride + node) must stay a positive int32.
func viewCapacity(stride graph.NodeID) int {
	c := int(int64(math.MaxInt32)/int64(stride)) - 1
	if c > maxFamilyViews {
		c = maxFamilyViews
	}
	return c
}

// viewBase returns the reader-GID offset of a member view.
func (s *System) viewBase(vw *view) graph.NodeID {
	return graph.NodeID(vw.tag) * s.stride
}

// restrideLocked rebuilds a merged system whose data graph outgrew its
// reader stride. Member tags survive (subscriptions and handles address
// views by tag plus real node id, never by encoded GID) and window
// contents are carried over (minus skip, see recompileLocked), so the rebuild
// is invisible to readers.
func (s *System) restrideLocked(skip map[graph.NodeID]bool) error {
	stride := strideFor(s.g)
	if len(s.views) > viewCapacity(stride) {
		return fmt.Errorf("core: graph growth to %d nodes leaves no room for %d merged views: %w",
			s.g.MaxID(), len(s.views), ErrIncompatibleMerge)
	}
	s.stride = stride
	return s.recompileLocked(skip)
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
// its existing tag-0 readers already use plain node ids, which is exactly
// tag 0 of the encoded scheme, so conversion adds no work. The caller holds
// the MultiSystem mutex (MultiSystem.AttachMerged does).
func (s *System) addMember(spec MemberSpec) (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nbr := spec.Neighborhood
	if nbr == nil {
		nbr = graph.InNeighbors{}
	}
	if s.stride == 0 {
		s.stride = strideFor(s.g)
		s.ov.SetReaderStride(int32(s.stride))
	} else if graph.NodeID(s.g.MaxID()) > s.stride {
		if err := s.restrideLocked(nil); err != nil {
			return 0, err
		}
	}
	if len(s.views)+1 > viewCapacity(s.stride) {
		return 0, errMergeFull
	}
	tag := int32(len(s.views))
	vw := view{nbr: nbr, pred: spec.Predicate, tag: tag, live: true}
	s.views = append(s.views, vw)
	if s.maint == nil {
		if err := s.recompileLocked(nil); err != nil {
			s.views[tag].live = false
			return 0, fmt.Errorf("core: merged recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return tag, nil
	}
	base := s.viewBase(&s.views[tag])
	var insertErr error
	s.g.ForEachNode(func(v graph.NodeID) {
		if insertErr != nil {
			return
		}
		if vw.pred != nil && !vw.pred(s.g, v) {
			return
		}
		insertErr = s.maint.AddReader(base+v, nbr.Select(s.g, v))
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
	if s.maint == nil {
		if err := s.recompileLocked(nil); err != nil {
			return fmt.Errorf("core: retire recompile: %w: %w", ErrIncompatibleMerge, err)
		}
		return nil
	}
	var gids []graph.NodeID
	s.ov.ForEachNode(func(ref overlay.NodeRef, n *overlay.Node) {
		if n.Kind == overlay.ReaderNode && s.ov.TagOf(ref) == tag {
			gids = append(gids, n.GID)
		}
	})
	for _, gid := range gids {
		if err := s.maint.RemoveReader(gid); err != nil {
			return fmt.Errorf("core: retire member %d: %w: %w", tag, ErrIncompatibleMerge, err)
		}
	}
	if err := s.afterMaintenance(); err != nil {
		return fmt.Errorf("core: retire member %d: %w: %w", tag, ErrIncompatibleMerge, errors.Join(err, s.recompileLocked(nil)))
	}
	return nil
}

// LiveViews reports the number of live member queries sharing this system's
// overlay (1 for a plain single-query system).
func (s *System) LiveViews() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveViewsLocked()
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
