package eagr

import (
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/workload"
)

// TestSessionAutotuneLifecycle exercises the facade wiring: enabling the
// controller starts it, SessionStats reports it live, StopAutotune halts it
// idempotently with counters surviving, and EnableAutotune restarts it.
func TestSessionAutotuneLifecycle(t *testing.T) {
	g := workload.SocialGraph(300, 6, 1)
	sess, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	sess.enableAutotune(autotune.Config{Interval: time.Millisecond})
	defer sess.StopAutotune()
	if _, err := sess.Register(QuerySpec{Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sess.Stats().Autotune.Ticks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("controller never ticked")
		}
		for v := 0; v < 300; v++ {
			if err := sess.Write(NodeID(v), 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	st := sess.Stats()
	if !st.Autotune.Enabled {
		t.Fatal("Autotune.Enabled = false while the controller runs")
	}

	sess.StopAutotune()
	sess.StopAutotune() // idempotent
	stopped := sess.Stats()
	if stopped.Autotune.Enabled {
		t.Fatal("Autotune.Enabled = true after StopAutotune")
	}
	if stopped.Autotune.Ticks == 0 {
		t.Fatal("controller counters did not survive StopAutotune")
	}

	sess.EnableAutotune()
	if !sess.Stats().Autotune.Enabled {
		t.Fatal("EnableAutotune did not restart the controller")
	}
	sess.StopAutotune()
}

// TestAdaptivityStatsWithoutAutotune checks that the always-on adaptivity
// section of SessionStats is fed by plain Rebalance calls even when the
// autotune controller never runs.
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
	if st.Autotune.Enabled || st.Autotune.Ticks != 0 {
		t.Fatalf("autotune reported activity without being enabled: %+v", st.Autotune)
	}
	for v := 0; v < 300; v++ {
		if err := sess.Write(NodeID(v), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Rebalance(); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.Adaptivity.PushObserved == 0 {
		t.Fatalf("Rebalance did not surface observation totals: %+v", st.Adaptivity)
	}
	if st.Adaptivity.Rebalances == 0 {
		t.Fatalf("Rebalances not counted: %+v", st.Adaptivity)
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
