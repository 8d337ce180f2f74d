package topo

import (
	"fmt"
	"sync"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/graph"
)

// Engine hosts every topology-valued view of one session's graph. It
// implements the core structural-listener hook: the graph-mutation path
// calls the *Added/*Removed methods after each successful structural
// mutation (never on content writes, so content-only batches pay zero topo
// cost). Time never reaches it: every value is a function of the current
// structure alone.
//
// One Engine serves all topo queries of a session; views are deduped by
// spec with refcounts, the same sharing model the numeric overlays use.
type Engine struct {
	mu     sync.RWMutex
	mirror *Mirror
	views  map[string]*View

	scratch []graph.NodeID // affected-ego buffer, reused per mutation
}

// NewEngine creates an engine mirroring g's current topology. The caller
// wires it to the mutation path (core.MultiSystem.AddStructuralListener);
// every structural event after this snapshot must be forwarded, which the
// session guarantees by constructing the engine under the core mutation
// lock.
func NewEngine(g *graph.Graph) *Engine {
	m := NewMirror(g.MaxID())
	m.Bootstrap(g)
	return &Engine{mirror: m, views: map[string]*View{}}
}

// View is one refcounted topology query compiled into the engine: an
// aggregate shared by every session query that names it. Every view reads
// straight off the mirror.
type View struct {
	eng  *Engine
	key  string
	agg  Aggregate
	refs int

	subs map[*exec.Subscription]map[graph.NodeID]struct{} // filter; nil = all egos
}

// Acquire returns the view for spec, creating it at refcount 1 or bumping
// the existing view's refcount — compile-key sharing for topo. The window
// is ignored: no value depends on it, so windowed and windowless queries of
// one aggregate share a view.
func (e *Engine) Acquire(spec Spec, window int64) (*View, error) {
	a, err := New(spec)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := spec.Key(0)
	if v, ok := e.views[key]; ok {
		v.refs++
		return v, nil
	}
	v := &View{
		eng:  e,
		key:  key,
		agg:  a,
		refs: 1,
		subs: map[*exec.Subscription]map[graph.NodeID]struct{}{},
	}
	e.views[key] = v
	return v, nil
}

// Release drops one reference; the last release removes the view from the
// engine and retires any subscriptions still attached.
func (v *View) Release() {
	v.eng.mu.Lock()
	v.refs--
	done := v.refs <= 0
	var retire []*exec.Subscription
	if done {
		delete(v.eng.views, v.key)
		for s := range v.subs {
			retire = append(retire, s)
		}
		v.subs = map[*exec.Subscription]map[graph.NodeID]struct{}{}
	}
	v.eng.mu.Unlock()
	for _, s := range retire {
		s.Retire()
	}
}

// Refs reports the current reference count (for sharing stats).
func (v *View) Refs() int {
	v.eng.mu.RLock()
	defer v.eng.mu.RUnlock()
	return v.refs
}

// Subscribers reports the number of live subscriptions on the view.
func (v *View) Subscribers() int {
	v.eng.mu.RLock()
	defer v.eng.mu.RUnlock()
	return len(v.subs)
}

// Read returns the aggregate's current value for ego v. Unknown or dead
// egos return exec.ErrUnknownNode, matching the numeric-query surface.
func (vw *View) Read(v graph.NodeID) (agg.Result, error) {
	vw.eng.mu.RLock()
	defer vw.eng.mu.RUnlock()
	if !vw.eng.mirror.Alive(v) {
		return agg.Result{}, fmt.Errorf("topo: read node %d: %w", v, exec.ErrUnknownNode)
	}
	return vw.agg.Value(vw.eng.mirror, v), nil
}

// Covered reports whether ego v currently has a value (is alive).
func (vw *View) Covered(v graph.NodeID) bool {
	vw.eng.mu.RLock()
	defer vw.eng.mu.RUnlock()
	return vw.eng.mirror.Alive(v)
}

// Subscribe attaches a bounded drop-oldest listener to the view (buffer < 1
// defaults to 16). With no nodes it observes every ego; otherwise only the
// listed egos, each of which must currently be alive (exec.ErrUnknownNode
// otherwise). Each structural change delivers the refreshed value of every
// observed ego whose ego network it changed, stamped with the event's ts —
// changed value or not. Cancel with Unsubscribe; the mutation path never
// blocks on a slow consumer.
func (vw *View) Subscribe(buffer int, nodes ...graph.NodeID) (*exec.Subscription, error) {
	vw.eng.mu.Lock()
	defer vw.eng.mu.Unlock()
	var filter map[graph.NodeID]struct{}
	if len(nodes) > 0 {
		filter = make(map[graph.NodeID]struct{}, len(nodes))
		for _, n := range nodes {
			if !vw.eng.mirror.Alive(n) {
				return nil, fmt.Errorf("topo: subscribe node %d: %w", n, exec.ErrUnknownNode)
			}
			filter[n] = struct{}{}
		}
	}
	sub := exec.NewLooseSubscription(buffer)
	vw.subs[sub] = filter
	return sub, nil
}

// Unsubscribe detaches sub and closes its channel. Idempotent.
func (vw *View) Unsubscribe(sub *exec.Subscription) {
	if sub == nil {
		return
	}
	vw.eng.mu.Lock()
	_, ok := vw.subs[sub]
	delete(vw.subs, sub)
	vw.eng.mu.Unlock()
	if ok {
		sub.Retire()
	}
}

// --- structural listener hook (called by core.MultiSystem) ---

// EdgeAdded folds directed edge u→w into the mirror and fans out.
func (e *Engine) EdgeAdded(u, w graph.NodeID, ts int64) {
	e.mu.Lock()
	common, changed := e.mirror.EdgeDelta(u, w, true)
	if changed {
		e.structuralChange(u, w, common, ts)
	}
	e.mu.Unlock()
}

// EdgeRemoved folds the removal of directed edge u→w into the mirror.
func (e *Engine) EdgeRemoved(u, w graph.NodeID, ts int64) {
	e.mu.Lock()
	common, changed := e.mirror.EdgeDelta(u, w, false)
	if changed {
		e.structuralChange(u, w, common, ts)
	}
	e.mu.Unlock()
}

// NodeAdded starts tracking v. A fresh node has an empty ego network, so
// nothing fans out.
func (e *Engine) NodeAdded(v graph.NodeID, ts int64) {
	e.mu.Lock()
	e.mirror.NodeAdded(v)
	e.mu.Unlock()
}

// NodeRemoved drops v and its incident edges; every former neighbor's ego
// network changed, so they all fan out. v itself is dead and stops being
// readable or deliverable.
func (e *Engine) NodeRemoved(v graph.NodeID, ts int64) {
	e.mu.Lock()
	affected := e.mirror.NodeRemoved(v)
	if len(affected) > 0 {
		e.fanout(affected, ts)
	}
	e.mu.Unlock()
}

// structuralChange handles a confirmed undirected-edge appearance or
// disappearance between u and w. The exact set of egos whose ego network
// changed is {u, w} ∪ common(u, w): any other ego would need both
// endpoints inside its neighborhood, i.e. be a common neighbor. Callers
// hold e.mu; common is mirror-owned scratch, consumed before returning.
func (e *Engine) structuralChange(u, w graph.NodeID, common []graph.NodeID, ts int64) {
	e.scratch = e.scratch[:0]
	e.scratch = append(e.scratch, u, w)
	e.scratch = append(e.scratch, common...)
	e.fanout(e.scratch, ts)
}

// fanout delivers the refreshed value of every affected, observed ego to
// each view's subscribers (callers hold e.mu). Values are computed from the
// already-updated mirror, so a view with no subscribers has nothing to do.
func (e *Engine) fanout(affected []graph.NodeID, ts int64) {
	for _, vw := range e.views {
		if len(vw.subs) == 0 {
			continue
		}
		for _, a := range affected {
			if e.mirror.Alive(a) && vw.observed(a) {
				vw.deliver(a, vw.agg.Value(e.mirror, a), ts)
			}
		}
	}
}

// observed reports whether any subscription covers ego a (callers hold the
// engine lock).
func (vw *View) observed(a graph.NodeID) bool {
	for _, filter := range vw.subs {
		if filter == nil {
			return true
		}
		if _, ok := filter[a]; ok {
			return true
		}
	}
	return false
}

// deliver fans one ego's refreshed result to the covering subscriptions
// (callers hold the engine lock; Deliver never blocks).
func (vw *View) deliver(a graph.NodeID, res agg.Result, ts int64) {
	u := exec.Update{Node: a, Result: res, TS: ts}
	for s, filter := range vw.subs {
		if filter != nil {
			if _, ok := filter[a]; !ok {
				continue
			}
		}
		s.Deliver(u)
	}
}

// Views reports the number of live compiled views (for stats).
func (e *Engine) Views() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.views)
}
