package shard

import (
	"errors"
	"fmt"

	eagr "repro"
	"repro/internal/graph"
)

// Options configure a Cluster.
type Options struct {
	// Shards is the number of shard Sessions (default 2).
	Shards int
	// Session is the compile configuration every shard opens with.
	Session eagr.Options
	// Ingest tunes the per-shard Ingestors. DisableAutoExpire is forced on:
	// the coordinator closes time on every shard at its stream time. Clock
	// stamps timestamp-less events at the coordinator, before routing, so
	// every shard lives in one time domain (nil means wall clock, as for a
	// plain Ingestor). StreamClock stamps them with the fleet's stream time
	// (Coordinator.StreamTime), the stream's "now" at the coordinator.
	Ingest eagr.IngestOptions
}

// Cluster is the in-process fleet: a Coordinator over N shard Sessions,
// each with its own Ingestor. Registering, applying and reading are the
// Coordinator's methods; Cluster adds only what needs the Sessions.
type Cluster struct {
	*Coordinator
	local []localShard
}

// localShard is the in-process Shard: a Session fed through an Ingestor
// whose automatic expiry is off.
type localShard struct {
	sess *eagr.Session
	ing  *eagr.Ingestor
}

// Open starts a cluster over g: each shard gets its own deep copy of the
// graph and its own Ingestor. The original graph is not retained.
func Open(g *graph.Graph, opts Options) (*Cluster, error) {
	n := opts.Shards
	if n <= 0 {
		n = 2
	}
	io := opts.Ingest
	io.DisableAutoExpire = true
	if io.Clock == nil {
		io.Clock = eagr.WallClock()
	}
	c := &Cluster{}
	shards := make([]Shard, n)
	for i := range shards {
		sess, err := eagr.Open(g.Clone(), opts.Session)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		ing, err := sess.Ingest(io)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.local = append(c.local, localShard{sess, ing})
		shards[i] = c.local[i]
	}
	// StreamClock reads 0 outside an Ingestor; at the coordinator the
	// stream's time is its own, which a nil clock stamps with.
	clock := io.Clock
	if clock == eagr.StreamClock() {
		clock = nil
	}
	c.Coordinator = NewCoordinator(shards, clock)
	return c, nil
}

func (s localShard) Register(spec eagr.QuerySpec, opts ...eagr.Options) (Member, error) {
	q, err := s.sess.Register(spec, opts...)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Apply sends the slice and waits for it. The flush runs even when a send
// was refused (a timestamp-jump guard, a closed Ingestor): the events
// accepted before it apply regardless, as on an HTTP shard.
func (s localShard) Apply(events []eagr.Event) error {
	_, err := s.ing.SendEvents(events)
	_ = s.ing.Flush() // the skipped events; see Shard.Apply
	return err
}

func (s localShard) Mutate(ev eagr.Event) (graph.NodeID, error) {
	added, err := s.sess.ApplyBatchNodes([]eagr.Event{ev})
	if len(added) == 0 {
		return 0, err
	}
	return added[0], err
}

func (s localShard) Expire(ts int64) error { return s.sess.ExpireAll(ts) }

// Shard exposes shard i's Session (diagnostics and tests).
func (c *Cluster) Shard(i int) *eagr.Session { return c.local[i].sess }

// SendBatch is Coordinator.Apply without the watermark: on return the batch
// has applied on every shard and expiry has advanced.
func (c *Cluster) SendBatch(events []eagr.Event) error {
	_, err := c.Apply(events)
	return err
}

// Flush has nothing left to drain, because SendBatch is synchronous. It
// remains for callers that pair the two.
func (c *Cluster) Flush() error { return nil }

// Stats reports per-shard ingestion counters, indexed by shard.
func (c *Cluster) Stats() []eagr.IngestorStats {
	out := make([]eagr.IngestorStats, len(c.local))
	for i, s := range c.local {
		out[i] = s.ing.Stats()
	}
	return out
}

// Close shuts down the shard Ingestors, flushing buffered events first.
func (c *Cluster) Close() error {
	var errs []error
	for i, s := range c.local {
		if err := s.ing.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
