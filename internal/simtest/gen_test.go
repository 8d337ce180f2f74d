package simtest

import (
	"reflect"
	"strings"
	"testing"
)

// TestDrawIsAFunctionOfTheSeed: a seed draws the same swarm, graph and op
// list every time, so a failure's replay line replays it.
func TestDrawIsAFunctionOfTheSeed(t *testing.T) {
	cfg := Config{Ops: []Kind{NewIngestor, Rebalance, Checkpoint, Crash, WALFault}, Nodes: 20, Steps: 60}
	for seed := int64(1); seed <= 8; seed++ {
		c := Cell{Durable: seed%2 == 0, TimeWindow: seed%4 > 1, Merged: seed > 4, Shards: 1, Algorithm: "vnmn"}
		sw1, g1, ops1 := cfg.draw(c, seed)
		sw2, g2, ops2 := cfg.draw(c, seed)
		if !reflect.DeepEqual(sw1, sw2) || !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(g1, g2) {
			t.Fatalf("seed %d drew two different runs:\n%+v\n%+v", seed, sw1, sw2)
		}
	}
}

// TestGateFailsAStateBelowItsShare: the gate fails a full sweep in which
// one state is short, and passes it at the share or on a smaller sweep, so
// it cannot pass vacuously.
func TestGateFailsAStateBelowItsShare(t *testing.T) {
	sweep := func(seeds, short int) *Reach {
		r := &Reach{}
		for i := range seeds {
			s := State(1<<numStates - 1)
			if i < short {
				s &^= Cancelled
			}
			r.add(s)
		}
		return r
	}
	if err := sweep(32, 29).Gate(32, 3); err != nil {
		t.Fatalf("a sweep reaching every state in 3 of 32 seeds: %v", err)
	}
	if err := sweep(32, 30).Gate(32, 3); err == nil || !strings.Contains(err.Error(), "cancelled reached by 2 of 32") {
		t.Fatalf("a sweep reaching cancelled in 2 of 32 seeds passed the gate: %v", err)
	}
	if err := sweep(8, 8).Gate(32, 3); err != nil {
		t.Fatalf("a sweep of 8 of 32 seeds (-short, or a seed failing) must pass: %v", err)
	}
}
