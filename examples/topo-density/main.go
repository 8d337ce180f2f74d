// Topology-valued queries, part 1: ego-network DENSITY as a standing,
// incrementally-maintained query. Unlike content aggregates (sum, max, …),
// density is fed by edge churn — content writes never touch it. The value
// at ego v is T(v) / C(k,2) in fixed point (eagr.TopoScale = 1e6): the
// fraction of v's neighbor pairs that are themselves connected.
//
// Run with: go run ./examples/topo-density
package main

import (
	"fmt"
	"log"

	eagr "repro"
)

func main() {
	// A small friend graph. Undirected semantics: for topology queries an
	// edge in either direction makes two users neighbors.
	const users = 6
	g := eagr.NewGraph(users)
	for _, e := range [][2]eagr.NodeID{
		{1, 0}, {2, 0}, {3, 0}, // 0 knows 1, 2, 3
		{1, 2}, // 1-2 closes a triangle through 0
	} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	sess, err := eagr.Open(g)
	if err != nil {
		log.Fatal(err)
	}

	// Registered exactly like a numeric aggregate — the name selects the
	// fixed topology table. Spellings are canonicalized ("density" here).
	density, err := sess.Register(eagr.QuerySpec{Aggregate: "density"})
	if err != nil {
		log.Fatal(err)
	}

	read := func(v eagr.NodeID) float64 {
		r, err := density.Read(v)
		if err != nil {
			log.Fatal(err)
		}
		return float64(r.Scalar) / float64(eagr.TopoScale)
	}
	// Ego 0 has neighbors {1,2,3} and one connected pair (1-2): 1/3.
	fmt.Printf("density(0) = %.3f  (one of three neighbor pairs connected)\n", read(0))

	// Structural events maintain the value incrementally — no recompute.
	// Close 2-3 and 1-3: ego 0's neighborhood becomes a clique.
	for _, e := range [][2]eagr.NodeID{{2, 3}, {1, 3}} {
		if err := sess.ApplyBatch([]eagr.Event{eagr.NewEdgeAdd(e[0], e[1], 0)}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after %d-%d: density(0) = %.3f\n", e[0], e[1], read(0))
	}

	// Content writes are invisible to topology queries (and cost them
	// nothing — the maintenance hook only fires on structural repair).
	if err := sess.Write(1, 42, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a content write: density(0) = %.3f (unchanged)\n", read(0))

	// Subscriptions deliver on structural change, exactly like numeric
	// query subscriptions deliver on content.
	updates, cancel, err := density.Subscribe(16, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	if err := sess.RemoveEdge(1, 2); err != nil {
		log.Fatal(err)
	}
	u := <-updates
	fmt.Printf("push on edge removal: density(%d) dropped to %.3f\n",
		u.Node, float64(u.Result.Scalar)/float64(eagr.TopoScale))
}
