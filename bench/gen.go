package main

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/workload"
)

// Every input is generated here from the seed; the program under test
// never sees the seed, only the graphs and events made from it.

const (
	// graphSeed fixes every workload's data graph. The graph is a dataset,
	// part of a workload's definition like its size (the paper's are fixed
	// too); --seed generates what streams over it: events, read targets,
	// churn, sampled egos. Overlay shape and memory differ from one random
	// graph to the next by more than any regression bound (a social graph
	// with no shareable biclique gets a maintainer, +40 % heap), so a
	// per-seed graph would measure the generator's luck.
	graphSeed   = 1
	zipfS       = 1.0 // writer and reader skew of every workload
	valueDomain = 64  // content values are 1..64, so topk has ties to break
)

// socialGraph is the fixed social-style dataset at a given size.
func socialGraph(nodes, degree int) *graph.Graph {
	return workload.SocialGraph(nodes, degree, graphSeed)
}

// writerWeights and readerWeights are the Zipf write and read mass per
// node. Which node is hot is part of the dataset, like the graph: with
// s = 1 the hottest writer alone takes an eighth of all writes, so its
// fan-out sets a good part of a workload's cost, and a per-seed choice of
// it would make two seeds two different workloads.
func writerWeights(maxID int) []float64 { return workload.ZipfWeights(maxID, zipfS, 1, graphSeed+1) }
func readerWeights(maxID int) []float64 { return workload.ZipfWeights(maxID, zipfS, 1, graphSeed+3) }

// contentInputs draws n iterations of one batch of batchSize writes and
// `reads` read targets each, writers and readers sampled with the fixed
// Zipf skews, in an order and with values that depend on the seed.
func contentInputs(maxID, n, reads int, seed int64) []iterInput {
	rng := rand.New(rand.NewSource(seed))
	writers := workload.NewSampler(writerWeights(maxID), seed+2)
	readers := workload.NewSampler(readerWeights(maxID), seed+4)
	events := make([]graph.Event, n*batchSize)
	targets := make([]graph.NodeID, n*reads)
	out := make([]iterInput, n)
	for i := range out {
		out[i].writes = events[i*batchSize : (i+1)*batchSize : (i+1)*batchSize]
		out[i].reads = targets[i*reads : (i+1)*reads : (i+1)*reads]
		for k := range out[i].writes {
			out[i].writes[k] = graph.Event{Kind: graph.ContentWrite, Node: writers.Sample(), Value: 1 + rng.Int63n(valueDomain)}
		}
		for k := range out[i].reads {
			out[i].reads[k] = readers.Sample()
		}
	}
	return out
}

// flatten returns the first inputs' writes, stamped from 1, and read
// targets, for the per-layer replays.
func flatten(inputs []iterInput, maxWrites, maxReads int) (writes []graph.Event, reads []graph.NodeID) {
	for _, in := range inputs {
		for _, ev := range in.writes {
			if len(writes) < maxWrites {
				ev.TS = int64(len(writes) + 1)
				writes = append(writes, ev)
			}
		}
		for _, v := range in.reads {
			if len(reads) < maxReads {
				reads = append(reads, v)
			}
		}
	}
	return writes, reads
}

// hotEgos returns the k egos with the largest expected update rate: the sum
// of the write mass of their in-neighbours.
func hotEgos(g *graph.Graph, weights []float64, k int) []graph.NodeID {
	type scored struct {
		v graph.NodeID
		w float64
	}
	var all []scored
	g.ForEachNode(func(v graph.NodeID) {
		var w float64
		for _, u := range g.In(v) {
			w += weights[u]
		}
		all = append(all, scored{v, w})
	})
	sort.Slice(all, func(a, b int) bool {
		if all[a].w != all[b].w {
			return all[a].w > all[b].w
		}
		return all[a].v < all[b].v
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = all[i].v
	}
	return out
}

// sampleEgos picks k distinct nodes uniformly, plus always the given ones.
func sampleEgos(maxID, k int, seed int64, always ...graph.NodeID) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, v := range always {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	if k > maxID {
		k = maxID
	}
	for len(out) < k+len(always) && len(seen) < maxID {
		v := graph.NodeID(rng.Intn(maxID))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// churnCycle pre-generates batches of batchSize events, structShare of them
// edge adds/removes and the rest content writes. Edge churn arrives in
// bursts: each batch carries its structural events as `runs` runs at random
// positions, each run fencing the content runs around it. The second half
// of the cycle undoes the first half's structural events in reverse order,
// so after a whole cycle the graph is back where it started and the cycle
// can repeat for as long as the timed phase lasts with every event valid.
// Timestamps are assigned when a batch is sent.
//
// Which edges churn, and where in a batch, is fixed like the graph
// (graphSeed): a repair costs what the overlay around that edge makes it
// cost, and sixteen batches of edges are too few for two random draws to
// cost alike. The seed draws the content writes between them.
func churnCycle(g *graph.Graph, halfBatches, batchSize int, structShare float64, runs int, seed int64) [][]graph.Event {
	rng := rand.New(rand.NewSource(seed))
	srng := rand.New(rand.NewSource(graphSeed + 11))
	n := g.MaxID()
	writers := workload.NewSampler(writerWeights(n), seed+2)
	type edge [2]graph.NodeID
	present := map[edge]bool{}
	var edges []edge
	g.ForEachNode(func(v graph.NodeID) {
		for _, u := range g.In(v) {
			e := edge{u, v}
			present[e] = true
			edges = append(edges, e)
		}
	})
	write := func() graph.Event {
		return graph.Event{Kind: graph.ContentWrite, Node: writers.Sample(), Value: 1 + rng.Int63n(valueDomain)}
	}
	structural := func() graph.Event {
		if srng.Intn(2) == 0 && len(edges) > 0 {
			// remove a live edge (swap-delete keeps picks O(1))
			j := srng.Intn(len(edges))
			e := edges[j]
			edges[j] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			delete(present, e)
			return graph.Event{Kind: graph.EdgeRemove, Node: e[0], Peer: e[1]}
		}
		var e edge
		for {
			e = edge{graph.NodeID(srng.Intn(n)), graph.NodeID(srng.Intn(n))}
			if e[0] != e[1] && !present[e] {
				break
			}
		}
		present[e] = true
		edges = append(edges, e)
		return graph.Event{Kind: graph.EdgeAdd, Node: e[0], Peer: e[1]}
	}
	nStruct := int(structShare*float64(batchSize) + 0.5)
	nContent := batchSize - nStruct
	fwd := make([][]graph.Event, halfBatches)
	for b := range fwd {
		// run r starts after cut[r] content events
		cuts := make([]int, runs)
		for r := range cuts {
			cuts[r] = srng.Intn(nContent + 1)
		}
		sort.Ints(cuts)
		batch := make([]graph.Event, 0, batchSize)
		content, r := 0, 0
		for len(batch) < batchSize {
			for r < runs && cuts[r] == content {
				size := nStruct / runs
				if r < nStruct%runs {
					size++
				}
				for k := 0; k < size; k++ {
					batch = append(batch, structural())
				}
				r++
			}
			if content < nContent {
				batch = append(batch, write())
				content++
			}
		}
		fwd[b] = batch
	}
	// The undo half mirrors the forward half batch for batch: batch k of the
	// undo half carries the inverses of forward batch (half-1-k), reversed.
	out := fwd
	for b := halfBatches - 1; b >= 0; b-- {
		var inv []graph.Event
		for i := len(fwd[b]) - 1; i >= 0; i-- {
			ev := fwd[b][i]
			switch ev.Kind {
			case graph.EdgeAdd:
				inv = append(inv, graph.Event{Kind: graph.EdgeRemove, Node: ev.Node, Peer: ev.Peer})
			case graph.EdgeRemove:
				inv = append(inv, graph.Event{Kind: graph.EdgeAdd, Node: ev.Node, Peer: ev.Peer})
			}
		}
		batch := make([]graph.Event, batchSize)
		k := 0
		for i := range batch {
			// keep the structural events at the same positions as the
			// forward batch had them, so both halves fence alike
			if fwd[b][i].IsStructural() {
				batch[i] = inv[k]
				k++
			} else {
				batch[i] = write()
			}
		}
		out = append(out, batch)
	}
	return out
}
