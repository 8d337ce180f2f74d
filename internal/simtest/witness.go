package simtest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
)

// Witnessed is a Target whose batches and Rebalance passes each run inside
// the hook Witness installs, in the order they take effect: batches one at
// a time, a pass possibly overlapping one. When its entry point owns time
// (Entry), the target drives an Ingestor, whose SendEvents (Send) and Flush
// several goroutines may call at once.
type Witnessed interface {
	Witness(hook func(events []graph.Event, run func() error) error)
	Send(events []graph.Event) error
	Flush() error
}

// senders is the number of goroutines a concurrent round sends from.
const senders = 3

// pace is how often a round's reader reads: often enough to overlap every
// batch, without spinning the CPUs the senders and parallel tests need.
const pace = 20 * time.Microsecond

// point is one witnessed effect: a batch as it applied (stamped), or a
// Rebalance pass (pass). begin and end are its places in the witness order;
// before and after the coverage of every subscribed reader there; updates
// what each subscription heard from the batch.
type point struct {
	events        []graph.Event
	pass          bool
	begin, end    int
	err           error
	before, after map[reader]bool
	updates       map[int][]Update
}

type reader struct {
	slot int
	v    NodeID
}

// witness records points while open: from the start of a batch op or a
// round to its end. Outside, the hook only runs what it wraps, so the
// background autotune loop never reads the target while the simulator
// changes its queries.
type witness struct {
	mu     sync.Mutex
	tg     Target
	open   bool
	seq    int
	points []*point
	subs   []int  // the subscribed slots, fixed while open
	ids    NodeID // coverage is snapshot at readers 0..ids-1
}

func (w *witness) hook(events []graph.Event, run func() error) error {
	w.mu.Lock()
	if !w.open {
		w.mu.Unlock()
		return run()
	}
	p := &point{events: slices.Clone(events), pass: events == nil, begin: w.seq, end: -1, before: w.cover()}
	w.seq++
	w.points = append(w.points, p)
	w.mu.Unlock()
	err := run()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.open && slices.Contains(w.points, p) {
		p.end, p.after, p.err = w.seq, w.cover(), err
		w.seq++
		if !p.pass {
			p.updates = map[int][]Update{}
			for _, slot := range w.subs {
				p.updates[slot] = w.tg.Updates(slot) // delivery is synchronous with the apply
			}
		}
	}
	return err
}

func (w *witness) cover() map[reader]bool {
	out := map[reader]bool{}
	for _, slot := range w.subs {
		for v := NodeID(0); v < w.ids; v++ {
			out[reader{slot, v}] = w.tg.Covered(slot, v)
		}
	}
	return out
}

// start opens the witness over s's subscriptions and every id ops can
// allocate.
func (w *witness) start(s *sim, ops []Op) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.open, w.points, w.ids, w.subs = true, nil, s.m.MaxID(), nil
	for _, op := range ops {
		for _, ev := range op.Events {
			if ev.Kind == graph.NodeAdd {
				w.ids++
			}
		}
	}
	for slot := range s.subs {
		w.subs = append(w.subs, slot)
	}
}

func (w *witness) now() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// stop closes the witness and returns the points that ended, in the order
// they began.
func (w *witness) stop() []*point {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.open = false
	return slices.DeleteFunc(w.points, func(p *point) bool { return p.end < 0 })
}

// lenient is the readers whose coverage changed while p applied: between
// its own ends, or under a pass that overlapped it. They may hear 0 or 1
// Update.
func lenient(p *point, pts []*point) map[reader]bool {
	out := map[reader]bool{}
	diff := func(q *point) {
		for r, c := range q.before {
			if q.after[r] != c {
				out[r] = true
			}
		}
	}
	diff(p)
	for _, q := range pts {
		if q.pass && q.begin < p.end && q.end > p.begin {
			diff(q)
		}
	}
	return out
}

// slab is one sender's batch: sent whole between witness positions lo and
// hi, the second when its Flush returned.
type slab struct {
	events []graph.Event
	lo, hi int
}

// round runs consecutive batches concurrently on a target that drives an
// Ingestor: senders goroutines share them out in turn, each sending one
// and flushing before the next; a reader goroutine reads a random query at
// a random id every pace; on autotune cells a Rebalance goroutine runs
// passes back to back. Then the
// model replays the witnessed order and checks it: each sender's batches
// apply in its program order, each before its Flush returned; each batch's
// Updates; each concurrent read returned no panic and no error but
// ErrUnknownNode at an id that was dead at some point of the round; and,
// after the join, every read.
func (s *sim) round(ops []Op, seed int64) error {
	s.w.start(s, ops)
	var (
		mu        sync.Mutex
		failures  []error
		unknown   = map[NodeID]bool{}
		slabs     [senders][]slab
		wg, other sync.WaitGroup
		done      = make(chan struct{})
	)
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}
	goFn := func(wg *sync.WaitGroup, f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fail(fmt.Errorf("panic: %v", p))
				}
			}()
			f()
		}()
	}
	tg := s.tg.(Witnessed)
	for i := range senders {
		goFn(&wg, func() {
			for j := i; j < len(ops); j += senders {
				sl := slab{events: ops[j].Events, lo: s.w.now()}
				if err := tg.Send(sl.events); err != nil {
					fail(fmt.Errorf("sender %d: %w", i, err))
				}
				_ = tg.Flush() // each batch's own error is witnessed
				sl.hi = s.w.now()
				slabs[i] = append(slabs[i], sl)
			}
		})
	}
	slots := s.m.Slots()
	goFn(&other, func() {
		rng, tick := rand.New(rand.NewSource(seed)), time.NewTicker(pace)
		defer tick.Stop()
		for len(slots) > 0 {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			v := NodeID(rng.Intn(int(s.w.ids) + 1))
			if _, err := s.tg.Read(slots[rng.Intn(len(slots))], v); errors.Is(err, ErrUnknownNode) {
				mu.Lock()
				unknown[v] = true
				mu.Unlock()
			} else if err != nil {
				fail(fmt.Errorf("a concurrent read at node %d: %w", v, err))
			}
		}
	})
	if s.cell.Autotune {
		goFn(&other, func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := s.tg.Do(Op{Kind: Rebalance}); err != nil {
					fail(fmt.Errorf("a concurrent Rebalance: %w", err))
				}
			}
		})
	}
	wg.Wait()
	close(done)
	other.Wait()
	pts := s.w.stop()
	s.trace = append(s.trace, witnessed(pts)...)
	if len(failures) > 0 {
		return errors.Join(failures...)
	}
	if err := s.matches(pts, slabs[:]); err != nil {
		return err
	}
	dead := map[NodeID]bool{}
	markDead := func() {
		for v := range s.w.ids + 1 {
			if !s.m.Alive(v) {
				dead[v] = true
			}
		}
	}
	markDead()
	refused := false
	for _, p := range pts {
		if p.pass {
			continue
		}
		if refused = refused || errors.Is(p.err, ErrRefused); refused {
			continue // the log refuses every op from its fault on
		}
		if p.err != nil && !skipped(p.err) {
			return p.err
		}
		for _, ev := range p.events {
			if ev.Kind == graph.NodeRemove {
				dead[ev.Node] = true // perhaps re-added later in the batch
			}
		}
		stamped, closeAt := s.stamp(p.events, false)
		if err := s.commit(Op{Kind: Batch}, stamped, closeAt, nil, p, pts); err != nil {
			return fmt.Errorf("witnessed batch %d: %w", p.begin, err)
		}
		markDead()
	}
	for v := range unknown {
		if !dead[v] {
			return fmt.Errorf("a concurrent read at node %d answered ErrUnknownNode, but the node was live throughout", v)
		}
	}
	if refused {
		return s.recover()
	}
	return s.check()
}

// matches checks that the witnessed batches are the senders' slabs, each
// whole inside one batch that applied between its Send and its Flush's
// return, in each sender's program order, with every ts-less event stamped
// at the stream time before it. A depth-first search over the next slab of
// each sender, memoised, finds such a split if one exists.
func (s *sim) matches(pts []*point, slabs [][]slab) error {
	var batches []*point
	for _, p := range pts {
		if !p.pass {
			batches = append(batches, p)
		}
	}
	seen := map[string]bool{}
	var dfs func(b, off int, now int64, next []int) bool
	dfs = func(b, off int, now int64, next []int) bool {
		for b < len(batches) && off == len(batches[b].events) {
			b, off = b+1, 0
		}
		key := fmt.Sprint(next)
		if seen[key] {
			return false
		}
		seen[key] = true
		all := true
		for i, sl := range slabs {
			if next[i] == len(sl) {
				continue
			}
			all = false
			cur := sl[next[i]]
			if len(cur.events) == 0 {
				if dfs(b, off, now, slices.Replace(slices.Clone(next), i, i+1, next[i]+1)) {
					return true
				}
				continue
			}
			if b == len(batches) || batches[b].begin < cur.lo || batches[b].end > cur.hi || off+len(cur.events) > len(batches[b].events) {
				continue
			}
			at, ok := now, true
			for j, ev := range cur.events {
				got := batches[b].events[off+j]
				if ev.TS == 0 && at != math.MinInt64 {
					ev.TS = at
				}
				if ok = got == ev; !ok {
					break
				}
				if got.TS != 0 {
					at = max(at, got.TS)
				}
			}
			if ok && dfs(b, off+len(cur.events), at, slices.Replace(slices.Clone(next), i, i+1, next[i]+1)) {
				return true
			}
		}
		return all && b == len(batches)
	}
	if !dfs(0, 0, s.m.now, make([]int, len(slabs))) {
		return fmt.Errorf("the applied stream is not the senders' batches, each whole, in program order, applied before its Flush returned:%s", listOps(witnessed(pts)))
	}
	return nil
}

// witnessed is the serial op list of a round's witnessed order: each batch
// as it applied, and one Rebalance for the passes between two batches.
func witnessed(pts []*point) []Op {
	var out []Op
	for _, p := range pts {
		switch {
		case !p.pass:
			out = append(out, Op{Kind: Batch, Events: p.events})
		case len(out) == 0 || out[len(out)-1].Kind != Rebalance:
			out = append(out, Op{Kind: Rebalance})
		}
	}
	return out
}
