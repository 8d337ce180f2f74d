package eagr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// sameShapeSpecs are six different queries — their own systems, windows and
// cost models — that construction cannot tell apart: every one is the
// auto-selected VNM_N overlay of the 1-hop in-neighbourhood.
var sameShapeSpecs = []QuerySpec{
	{Aggregate: "sum"},
	{Aggregate: "count"},
	{Aggregate: "sum", WindowTuples: 2},
	{Aggregate: "count", WindowTuples: 2},
	{Aggregate: "sum", WindowTuples: 3},
	{Aggregate: "count", WindowTuples: 3},
}

// nearBicliqueRing is doubleRing plus a dense block: each of readers 0–15 is
// fed by all of writers 24–47 but one, so VNM_N covers them with a shared
// partial minus a negative edge — an overlay no maintainer can repair, which
// a structural run therefore recompiles.
func nearBicliqueRing(nodes int) *Graph {
	g := doubleRing(nodes)
	for r := 0; r < 16; r++ {
		for w := 24; w < nodes; w++ {
			if w-24 != r {
				_ = g.AddEdge(NodeID(w), NodeID(r)) // ring edges exist already
			}
		}
	}
	return g
}

// TestShapeCacheThroughSession: the second same-shape Register of a session
// mines nothing, says so in SessionStats, and content writes — which never
// touch the graph's structural version — leave it valid for the third.
func TestShapeCacheThroughSession(t *testing.T) {
	const nodes = 48
	g := doubleRing(nodes)
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	qs := registerAll(t, sess, sameShapeSpecs[:2])
	if st := sess.Stats(); st.OverlaysMined != 1 || st.OverlaysCloned != 1 || st.Groups != 2 {
		t.Fatalf("after two same-shape registrations: %+v", st)
	}
	version := g.Version()
	var events []Event
	for i := 0; i < 4*nodes; i++ {
		events = append(events, NewWrite(NodeID(i%nodes), int64(i), int64(i+1)))
	}
	if err := sess.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if g.Version() != version {
		t.Fatalf("content writes moved the structural version %d -> %d", version, g.Version())
	}
	qs = append(qs, registerAll(t, sess, sameShapeSpecs[2:3])...)
	if st := sess.Stats(); st.OverlaysMined != 1 || st.OverlaysCloned != 2 {
		t.Fatalf("after content writes and a third registration: %+v", st)
	}
	modelCheck(t, "first two queries", doubleRing(nodes), nil, events, qs[:2])

	// A failed structural event is no structural event.
	if err := sess.AddEdge(1, 0); err == nil {
		t.Fatal("fixture: edge 1->0 should exist already")
	}
	registerAll(t, sess, sameShapeSpecs[3:4])
	if st := sess.Stats(); st.OverlaysMined != 1 || st.OverlaysCloned != 3 {
		t.Fatalf("after a failed edge add and a fourth registration: %+v", st)
	}
}

// TestShapeCacheDurableRecoveryMinesOnce: OpenDurable replays the logged
// registrations through the same Register path, so recovering two
// same-shape queries costs one mine.
func TestShapeCacheDurableRecoveryMinesOnce(t *testing.T) {
	const nodes = 48
	dir := t.TempDir()
	s, _, err := OpenDurable(doubleRing(nodes), DurabilityOptions{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, s, sameShapeSpecs[:2])
	var events []Event
	for i := 0; i < 2*nodes; i++ {
		events = append(events, NewWrite(NodeID(i%nodes), int64(i), int64(i+1)))
	}
	if err := s.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	_ = s.SimulateCrash()

	s2, _, err := OpenDurable(nil, DurabilityOptions{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.CloseDurability()
	if st := s2.Stats(); st.Queries != 2 || st.OverlaysMined != 1 || st.OverlaysCloned != 1 {
		t.Fatalf("recovered session: %+v", st)
	}
	modelCheck(t, "recovered", doubleRing(nodes), nil, events, s2.Queries())
}

// TestShapeCacheRegisterConcurrentWithStructuralRuns races registrations
// and closes of same-shape queries against ApplyBatch chunks whose
// structural runs recompile every VNM_N overlay (one mine per run, the rest
// clones of it) and bump the version the clones are keyed on. A registration
// sees either the graph before a run or after it, never a sibling's overlay
// of the wrong one: every surviving query must read what a brute-force
// recompute over the final graph predicts.
func TestShapeCacheRegisterConcurrentWithStructuralRuns(t *testing.T) {
	const nodes = 48
	for seed := int64(1); seed <= 3; seed++ {
		sess, err := Open(nearBicliqueRing(nodes))
		if err != nil {
			t.Fatal(err)
		}
		if first := registerAll(t, sess, sameShapeSpecs[:1])[0]; first.Stats().Maintainable {
			t.Fatal("fixture: the overlay is maintainable, structural runs would repair it and never recompile")
		}
		events := mixedStream(seed, nodes)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for off := 0; off < len(events); off += 40 {
				_ = sess.ApplyBatch(events[off:min(off+40, len(events))]) // invalid events are skipped and reported
			}
		}()
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 30; round++ {
				q, err := sess.Register(sameShapeSpecs[1+round%(len(sameShapeSpecs)-1)])
				if err != nil {
					t.Errorf("seed %d round %d: Register: %v", seed, round, err)
					return
				}
				for i := 0; i < 8; i++ {
					_, _ = q.Read(NodeID(rng.Intn(nodes))) // dead nodes answer ErrUnknownNode
				}
				if rng.Intn(3) == 0 {
					_ = q.Close()
				}
			}
		}()
		wg.Wait()

		// A query registered mid-stream has seen only the writes after it.
		// Three more values per live node overwrite every (≤ 3-tuple)
		// window, after which history no longer matters.
		var refresh []Event
		for v := NodeID(0); int(v) < sess.Graph().MaxID(); v++ {
			for k := int64(0); sess.Graph().Alive(v) && k < 3; k++ {
				refresh = append(refresh, NewWrite(v, int64(v)*7+k, int64(len(events))+k+2))
			}
		}
		if err := sess.ApplyBatch(refresh); err != nil {
			t.Fatal(err)
		}
		modelCheck(t, fmt.Sprintf("seed %d", seed), nearBicliqueRing(nodes), events, refresh, sess.Queries())
		st := sess.Stats()
		if st.Queries < 2 || st.OverlaysCloned == 0 || st.OverlaysMined < 10 {
			t.Fatalf("seed %d: the race never met the cache: %+v", seed, st)
		}
		t.Logf("seed %d: %d queries left, %d overlays mined, %d cloned", seed, st.Queries, st.OverlaysMined, st.OverlaysCloned)
	}
}
