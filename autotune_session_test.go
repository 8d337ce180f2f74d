package eagr

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSessionAutotuneLifecycle exercises the facade wiring: enabling the
// autotune loop starts it (twice is once), SessionStats reports it live and
// counts its Rebalance passes, StopAutotune halts it idempotently with the
// counters surviving, and EnableAutotune restarts it.
func TestSessionAutotuneLifecycle(t *testing.T) {
	g := workload.SocialGraph(300, 6, 1)
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	sess.enableAutotune(time.Millisecond)
	sess.enableAutotune(time.Millisecond) // idempotent
	defer sess.StopAutotune()
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sess.Stats().Adaptivity.Rebalances == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the autotune loop never ran a Rebalance")
		}
		for v := 0; v < 300; v++ {
			if err := sess.Write(NodeID(v), 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !sess.Stats().Autotune {
		t.Fatal("Autotune = false while the loop runs")
	}

	sess.StopAutotune()
	sess.StopAutotune() // idempotent
	stopped := sess.Stats()
	if stopped.Autotune {
		t.Fatal("Autotune = true after StopAutotune")
	}
	if stopped.Adaptivity.Rebalances == 0 {
		t.Fatal("the loop's Rebalance count did not survive StopAutotune")
	}
	if again := sess.Stats().Adaptivity.Rebalances; again != stopped.Adaptivity.Rebalances {
		t.Fatalf("Rebalances moved from %d to %d after StopAutotune returned", stopped.Adaptivity.Rebalances, again)
	}

	sess.EnableAutotune()
	if !sess.Stats().Autotune {
		t.Fatal("EnableAutotune did not restart the loop")
	}
	sess.StopAutotune()
}

// TestAdaptivityStatsWithoutAutotune checks that the always-on adaptivity
// section of SessionStats is fed by plain Rebalance calls even when the
// autotune loop never runs, and that Flips totals every pass's flips.
func TestAdaptivityStatsWithoutAutotune(t *testing.T) {
	g := workload.SocialGraph(300, 6, 1)
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Autotune || st.Adaptivity.Rebalances != 0 {
		t.Fatalf("autotune reported activity without being enabled: %+v", st)
	}
	// Writes and no reads: every push frontier node is told to go pull.
	for round := 0; round < 100; round++ {
		for v := 0; v < 300; v++ {
			if err := sess.Write(NodeID(v), 1, int64(round+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	flips, err := sess.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if flips == 0 {
		t.Fatal("fixture: a write-only window flipped nothing")
	}
	if _, err := sess.Rebalance(); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.Adaptivity.Flips != int64(flips) {
		t.Fatalf("Flips = %d, want the first pass's %d (the second had no window): %+v", st.Adaptivity.Flips, flips, st.Adaptivity)
	}
	if st.Adaptivity.Rebalances != 2 {
		t.Fatalf("Rebalances = %d after two passes: %+v", st.Adaptivity.Rebalances, st.Adaptivity)
	}
	if st.Adaptivity.PushObserved == 0 {
		t.Fatalf("Rebalance did not surface observation totals: %+v", st.Adaptivity)
	}
	if st.Adaptivity.LastRebalanceNano == 0 {
		t.Fatalf("LastRebalanceNano not stamped: %+v", st.Adaptivity)
	}
	// Every structural run ends in one engine install, and the stats say so.
	before := st.Adaptivity.Installs
	toggle := sess.AddEdge
	if g.HasEdge(0, 299) {
		toggle = sess.RemoveEdge
	}
	if err := toggle(0, 299); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats().Adaptivity.Installs; got != before+1 {
		t.Fatalf("Installs = %d after one structural change, was %d", got, before)
	}
}
