// Topology-valued queries, part 3: EGO-BETWEENNESS — how much of a broker
// each user is within their own ego network (Everett–Borgatti: for every
// non-adjacent pair of neighbors, the ego's share of the shortest paths
// between them). Fixed point at eagr.TopoScale = 1.0.
//
// It is computed over the ego's current network on every read, so reads
// are always live, and a subscriber hears each change at the event's
// timestamp. A WindowTime on the query is still accepted, for
// registrations written before, but changes no value.
//
// Run with: go run ./examples/ego-betweenness
package main

import (
	"fmt"
	"log"

	eagr "repro"
)

func main() {
	const users = 5
	sess, err := eagr.Open(eagr.NewGraph(users))
	if err != nil {
		log.Fatal(err)
	}

	live, err := sess.Register(eagr.QuerySpec{Aggregate: "ego-betweenness"})
	if err != nil {
		log.Fatal(err)
	}
	// A windowed registration reads the same values as the live one.
	windowed, err := sess.Register(eagr.QuerySpec{Aggregate: "ego-betweenness", WindowTime: 100})
	if err != nil {
		log.Fatal(err)
	}

	// A broker topology: user 0 connects two otherwise-separate circles.
	for _, e := range [][2]eagr.NodeID{
		{1, 0}, {2, 0}, // circle A touches the broker
		{3, 0}, {4, 0}, // circle B touches the broker
		{1, 2}, {3, 4}, // the circles are internally tight
	} {
		if err := sess.AddEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}

	eb := func(q *eagr.Query, v eagr.NodeID) float64 {
		r, err := q.Read(v)
		if err != nil {
			log.Fatal(err)
		}
		return float64(r.Scalar) / float64(eagr.TopoScale)
	}
	// Broker 0 sits between 4 of its 6 neighbor pairs (1-3, 1-4, 2-3, 2-4).
	fmt.Printf("live EB: broker=%.2f circleA=%.2f circleB=%.2f (windowed broker=%.2f)\n",
		eb(live, 0), eb(live, 1), eb(live, 3), eb(windowed, 0))

	// Subscribe to the broker, then bridge the circles directly: 1-3. The
	// subscriber hears the new value at the bridging event's timestamp.
	updates, cancel, err := live.Subscribe(16, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	if err := sess.ApplyBatch([]eagr.Event{eagr.NewEdgeAdd(1, 3, 220)}); err != nil {
		log.Fatal(err)
	}
	select {
	case u := <-updates:
		fmt.Printf("1-3 bridge at ts=%d: broker EB -> %.2f\n",
			u.TS, float64(u.Result.Scalar)/float64(eagr.TopoScale))
	default:
		log.Fatal("no update for the broker after the bridge")
	}
	fmt.Printf("after 1-3 bridge: live=%.2f windowed=%.2f circleA=%.2f\n",
		eb(live, 0), eb(windowed, 0), eb(live, 1))
}
