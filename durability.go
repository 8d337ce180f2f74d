package eagr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/wal"
)

// Durability: a Session opened with OpenDurable persists the event stream
// as a write-ahead log and periodically checkpoints the full session image
// (graph, registered queries, per-writer window suffixes). A restart over
// the same directory recovers by loading the latest valid checkpoint and
// replaying the WAL tail through the normal apply path, truncating any
// torn tail a crash left behind. See DESIGN.md's durability section.

// ErrDurabilityClosed reports a mutation on a session whose durability
// layer has been shut down (CloseDurability or SimulateCrash).
var ErrDurabilityClosed = errors.New("eagr: durability closed")

// FsyncPolicy selects when acknowledged events are forced to stable
// storage: it is the WAL's sync policy.
type FsyncPolicy = wal.SyncPolicy

const (
	// FsyncPerBatch (the default) fsyncs the WAL on every appended batch:
	// an acknowledged event is never lost.
	FsyncPerBatch = wal.SyncAlways
	// FsyncInterval fsyncs when DurabilityOptions.FsyncInterval has elapsed
	// since the last sync: a crash loses at most the events acknowledged
	// inside the window.
	FsyncInterval = wal.SyncEvery
	// FsyncOff never fsyncs on append; the OS flushes on its own schedule.
	// Graceful shutdown still flushes everything.
	FsyncOff = wal.SyncNone
)

// ParseFsyncPolicy parses the flag spellings: "per-batch" (or "batch",
// "always"), "interval", "off" (or "none").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "per-batch", "batch", "always", "":
		return FsyncPerBatch, nil
	case "interval":
		return FsyncInterval, nil
	case "off", "none":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("eagr: unknown fsync policy %q", s)
	}
}

// DurabilityOptions configure OpenDurable; only Dir is required.
type DurabilityOptions struct {
	// Dir is the directory holding WAL segments and checkpoints.
	// It is created if absent and must be owned exclusively by one session.
	Dir string
	// Fsync selects the WAL sync policy (default FsyncPerBatch).
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval flush period (default 100ms).
	FsyncInterval time.Duration
	// CheckpointInterval is the period of background checkpoints; zero
	// disables them (Checkpoint can still be called explicitly, and
	// CloseDurability always writes a final one).
	CheckpointInterval time.Duration

	// fs overrides the backing filesystem (fault-injection tests).
	fs wal.FS
}

// Recovery summarizes what OpenDurable found and rebuilt.
type Recovery struct {
	// CheckpointSeq/CheckpointLSN identify the checkpoint loaded (zero when
	// the directory was fresh, before the initial checkpoint).
	CheckpointSeq uint64 `json:"checkpointSeq"`
	CheckpointLSN uint64 `json:"checkpointLSN"`
	// RecoveredQueries is the number of standing queries live after
	// recovery (checkpoint queries plus replayed registrations minus
	// replayed retirements).
	RecoveredQueries int `json:"recoveredQueries"`
	// ReplayedBatches/ReplayedEvents count the WAL tail replayed (both zero
	// after a CloseDurability: its final checkpoint covers the whole log).
	ReplayedBatches int `json:"replayedBatches"`
	ReplayedEvents  int `json:"replayedEvents"`
	// TruncatedTail is true when the scan dropped a torn tail.
	TruncatedTail bool `json:"truncatedTail"`
	// NextOrdinal is the global event-stream ordinal after recovery: every
	// event with ordinal < NextOrdinal is part of the recovered state.
	NextOrdinal uint64 `json:"nextOrdinal"`
	// Watermark is the last expiry applied (replayed); WatermarkValid is
	// false when no expiry ever ran.
	Watermark      int64 `json:"recoveredWatermark"`
	WatermarkValid bool  `json:"recoveredWatermarkValid"`
	// Duration is the wall time recovery took.
	Duration time.Duration `json:"recoveryNanos"`
}

// durableState is the per-session durability layer. Its RWMutex is the
// consistency cut: every logged mutation holds the read lock across
// append-then-apply, and checkpoints (plus query register/retire, which
// must order exactly against batches in the log) hold the write lock — so
// a checkpoint never observes a half-applied batch.
type durableState struct {
	fs   wal.FS
	opts DurabilityOptions

	mu      sync.RWMutex
	log     *wal.Log
	closed  bool
	ckptSeq uint64

	ckpts       atomic.Int64
	lastCkptLSN atomic.Uint64
	lastCkptWM  atomic.Int64
	errMu       sync.Mutex
	lastCkptErr error

	recovery Recovery

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// queryRecord is the serialized form of a durable query registration: the
// plain-value spec plus the serializable compile options. Queries whose
// options cannot be serialized (custom Neighborhood functions) register
// normally but are not durable — they silently don't survive recovery;
// Query.Durable reports which.
type queryRecord struct {
	ID         int       `json:"id"`
	Spec       QuerySpec `json:"spec"`
	Algorithm  string    `json:"algorithm,omitempty"`
	Mode       string    `json:"mode,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
}

// encodeQueryRecord serializes a registration; ok is false when the
// options carry non-serializable state.
func encodeQueryRecord(id int, spec QuerySpec, o Options) ([]byte, bool) {
	if o.Neighborhood != nil {
		return nil, false
	}
	blob, err := json.Marshal(queryRecord{
		ID: id, Spec: spec,
		Algorithm: o.Algorithm, Mode: o.Mode, Iterations: o.Iterations,
	})
	if err != nil {
		return nil, false
	}
	return blob, true
}

// decodeQueryRecord refuses a field it does not know: a record naming an
// option this build cannot honour would otherwise register a query that
// compiles differently from the one that was logged.
func decodeQueryRecord(blob []byte) (int, QuerySpec, Options, error) {
	var qr queryRecord
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&qr); err != nil {
		return 0, QuerySpec{}, Options{}, fmt.Errorf("eagr: decode query record: %w", err)
	}
	return qr.ID, qr.Spec, Options{
		Algorithm: qr.Algorithm, Mode: qr.Mode, Iterations: qr.Iterations,
	}, nil
}

// OpenDurable opens a durable multi-query session rooted at dopts.Dir.
//
// On a fresh directory it behaves like Open over g (nil g means an empty
// graph) and writes an initial checkpoint. On a directory with prior state
// it RECOVERS: g is ignored, the latest valid checkpoint is loaded (the
// previous one if the newest is damaged), the WAL tail is replayed through
// the normal apply path — re-registering queries, re-applying event
// batches and expiries in original order — and any torn tail a crash left
// is truncated, never fatal. The returned Recovery says how much was
// replayed.
//
// After CloseDurability the final checkpoint covers the whole log and the
// tail is empty; an unclean stop (crash, SIGKILL, SimulateCrash) costs a
// replay of the WAL tail on the next OpenDurable, nothing more.
func OpenDurable(g *Graph, dopts DurabilityOptions, opts ...Options) (*Session, *Recovery, error) {
	start := time.Now()
	fs := dopts.fs
	if fs == nil {
		if dopts.Dir == "" {
			return nil, nil, errors.New("eagr: DurabilityOptions.Dir is required")
		}
		osfs, err := wal.NewOsFS(dopts.Dir)
		if err != nil {
			return nil, nil, err
		}
		fs = osfs
	}
	log, err := wal.Open(fs, wal.Options{Policy: dopts.Fsync, Interval: dopts.FsyncInterval})
	if err != nil {
		return nil, nil, err
	}
	ckpt, ckptSeq, err := wal.LoadLatestCheckpoint(fs)
	if err != nil {
		log.Close()
		return nil, nil, err
	}

	d := &durableState{fs: fs, opts: dopts, log: log}
	rec := Recovery{TruncatedTail: log.Truncated()}

	var s *Session
	if ckpt == nil {
		// A checkpoint is written before the first append ever happens, so
		// records without any loadable checkpoint mean both retained
		// checkpoints were destroyed: refuse to present partial state as
		// the whole.
		if log.LastLSN() != 0 {
			log.Close()
			return nil, nil, errors.New("eagr: WAL contains records but no valid checkpoint; refusing partial recovery")
		}
		if g == nil {
			g = NewGraph(0)
		}
		s, err = Open(g, opts...)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		s.dur = d
		d.mu.Lock()
		err = s.checkpointLocked(d)
		d.mu.Unlock()
		if err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("eagr: initial checkpoint: %w", err)
		}
	} else {
		g2, err := graph.Load(bytes.NewReader(ckpt.Graph))
		if err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("eagr: checkpoint graph: %w", err)
		}
		s, err = Open(g2, opts...)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		// s.dur stays nil until the WAL tail has replayed, so recovery's
		// registrations, applies and retirements log nothing.
		d.ckptSeq = ckptSeq
		d.lastCkptLSN.Store(ckpt.LSN)
		d.lastCkptWM.Store(ckpt.Watermark)
		rec.CheckpointSeq = ckptSeq
		rec.CheckpointLSN = ckpt.LSN
		log.SetNextOrd(ckpt.NextOrd)
		s.maxTS.Store(ckpt.MaxTS)
		s.lastExpire.Store(ckpt.Watermark)
		// Re-register the checkpointed queries in registration order, then
		// inject every writer's window suffix through the normal write path
		// — windows, partial aggregates and scalars rebuild exactly.
		for _, blob := range ckpt.Queries {
			if rerr := s.recoverQuery(blob); rerr != nil {
				log.Close()
				return nil, nil, rerr
			}
			rec.RecoveredQueries++
		}
		s.mu.Lock()
		if n := int(ckpt.NextQueryID); n > s.nextID {
			s.nextID = n
		}
		s.mu.Unlock()
		for _, gw := range ckpt.Windows {
			var evs []Event
			for _, ww := range gw.Windows {
				for _, e := range ww.Entries {
					evs = append(evs, Event{Kind: graph.ContentWrite, Node: ww.Node, Value: e.V, TS: e.TS})
				}
			}
			if len(evs) == 0 {
				continue
			}
			if ierr := s.multi.InjectGroupWindows(gw.Key, evs); ierr != nil {
				log.Close()
				return nil, nil, fmt.Errorf("eagr: recover windows: %w", ierr)
			}
		}
		serr := log.Scan(ckpt.LSN+1, func(r wal.Record) error {
			switch r.Type {
			case wal.RecBatch:
				// Per-event apply errors (duplicate edge, dead node)
				// replayed the original's skips; the end state matches.
				_, _ = s.apply(r.Events, graph.NoAdvance, false)
				rec.ReplayedBatches++
				rec.ReplayedEvents += len(r.Events)
			case wal.RecRegister:
				if rerr := s.recoverQuery(r.Blob); rerr != nil {
					return rerr
				}
				rec.RecoveredQueries++
			case wal.RecRetire:
				if q := s.Query(int(r.QueryID)); q != nil {
					_ = q.closeInner()
					rec.RecoveredQueries--
				}
			case wal.RecExpire:
				_, _ = s.apply(nil, r.TS, false)
			}
			return nil
		})
		if serr != nil {
			log.Close()
			return nil, nil, serr
		}
		s.dur = d
	}

	rec.CheckpointSeq = d.ckptSeq
	rec.CheckpointLSN = d.lastCkptLSN.Load()
	rec.NextOrdinal = log.NextOrd()
	if wm := s.lastExpire.Load(); wm != math.MinInt64 {
		rec.Watermark = wm
		rec.WatermarkValid = true
	}
	rec.Duration = time.Since(start)
	d.recovery = rec

	if dopts.CheckpointInterval > 0 {
		d.stop = make(chan struct{})
		d.done = make(chan struct{})
		go d.checkpointLoop(s)
	}
	recOut := rec
	return s, &recOut, nil
}

// recoverQuery re-registers one logged registration (a checkpoint entry or a
// WAL RecRegister blob) under its original id, through the same registration
// path a live Register takes.
func (s *Session) recoverQuery(blob []byte) error {
	id, spec, o, err := decodeQueryRecord(blob)
	if err != nil {
		return err
	}
	q, err := s.register(spec, o, id)
	if err != nil {
		return fmt.Errorf("eagr: recover query %d: %w", id, err)
	}
	q.durable = true
	return nil
}

// checkpointLoop writes periodic background checkpoints.
func (d *durableState) checkpointLoop(s *Session) {
	defer close(d.done)
	t := time.NewTicker(d.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := s.Checkpoint(); err != nil && !errors.Is(err, ErrDurabilityClosed) {
				d.errMu.Lock()
				d.lastCkptErr = err
				d.errMu.Unlock()
			}
		}
	}
}

// stopLoop terminates the background checkpointer, if any.
func (d *durableState) stopLoop() {
	d.stopOnce.Do(func() {
		if d.stop != nil {
			close(d.stop)
			<-d.done
		}
	})
}

// Durable reports whether the session was opened with OpenDurable (and its
// durability layer has not been closed).
func (s *Session) Durable() bool {
	d := s.dur
	if d == nil {
		return false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return !d.closed
}

// Checkpoint synchronously writes a checkpoint of the current session
// state and prunes the WAL segments it covers. It runs under the full
// durability lock, briefly excluding concurrent mutations.
func (s *Session) Checkpoint() error {
	d := s.dur
	if d == nil {
		return errors.New("eagr: durability not enabled")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurabilityClosed
	}
	return s.checkpointLocked(d)
}

// checkpointLocked builds and writes a checkpoint. Callers hold d.mu; no
// batch is mid-apply, so the graph, query set, window state and log
// position form one consistent cut.
func (s *Session) checkpointLocked(d *durableState) error {
	gb, err := s.g.AppendBinary(nil)
	if err != nil {
		d.setCkptErr(err)
		return err
	}
	c := &wal.Checkpoint{
		LSN:       d.log.LastLSN(),
		NextOrd:   d.log.NextOrd(),
		Watermark: s.lastExpire.Load(),
		MaxTS:     s.maxTS.Load(),
		Graph:     gb,
	}
	s.mu.Lock()
	c.NextQueryID = uint64(s.nextID)
	qs := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		if q.durable {
			qs = append(qs, q)
		}
	}
	s.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	durableKeys := make(map[string]bool, len(qs))
	for _, q := range qs {
		blob, ok := encodeQueryRecord(q.id, q.spec, q.opts)
		if !ok {
			continue
		}
		c.Queries = append(c.Queries, blob)
		durableKeys[q.fullKey] = true
	}
	for _, gw := range s.multi.ExportGroupWindows(func(k string) bool { return durableKeys[k] }) {
		nodes := make([]NodeID, 0, len(gw.Windows))
		for node := range gw.Windows {
			nodes = append(nodes, node)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		cg := wal.GroupWindows{Key: gw.Key}
		for _, node := range nodes {
			cg.Windows = append(cg.Windows, wal.WriterWindow{Node: node, Entries: gw.Windows[node]})
		}
		c.Windows = append(c.Windows, cg)
	}
	seq := d.ckptSeq + 1
	if err := wal.WriteCheckpoint(d.fs, seq, c); err != nil {
		d.setCkptErr(err)
		return err
	}
	d.ckptSeq = seq
	d.ckpts.Add(1)
	d.lastCkptLSN.Store(c.LSN)
	d.lastCkptWM.Store(c.Watermark)
	d.setCkptErr(nil)
	d.log.Prune(c.LSN)
	return nil
}

func (d *durableState) setCkptErr(err error) {
	d.errMu.Lock()
	d.lastCkptErr = err
	d.errMu.Unlock()
}

// SyncWAL forces the WAL to stable storage regardless of the fsync policy.
// A no-op on non-durable (or already-closed) sessions.
func (s *Session) SyncWAL() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil
	}
	return d.log.Sync()
}

// CloseDurability shuts the durability layer down cleanly: a final
// checkpoint (covering the whole log, so the next OpenDurable replays
// nothing) and the WAL files closed. The session itself stays usable but
// no longer persists anything; further logged mutations return
// ErrDurabilityClosed. A second call returns ErrDurabilityClosed.
func (s *Session) CloseDurability() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.stopLoop()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurabilityClosed
	}
	cerr := s.checkpointLocked(d)
	lerr := d.log.Close()
	d.closed = true
	return errors.Join(cerr, lerr)
}

// SimulateCrash abandons the durability layer WITHOUT a final checkpoint —
// the on-disk state is exactly what a kill at this moment leaves (modulo OS
// page-cache loss, which only FaultFS models). The next OpenDurable replays
// the WAL tail. For tests, benchmarks and recovery drills.
func (s *Session) SimulateCrash() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.stopLoop()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurabilityClosed
	}
	d.closed = true
	return d.log.Close()
}

// DurabilityStats is the observable state of the durability layer.
type DurabilityStats struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir"`
	// WAL shape: live segments and their bytes, the last LSN, and
	// appended record and fsync counts.
	WALSegments int    `json:"walSegments"`
	WALBytes    int64  `json:"walBytes"`
	WALLastLSN  uint64 `json:"walLastLSN"`
	WALAppends  int64  `json:"walAppends"`
	WALSyncs    int64  `json:"walSyncs"`
	// Checkpoints written this run, the last one's LSN/watermark, and the
	// last checkpoint error (empty when the last attempt succeeded).
	Checkpoints             int64  `json:"checkpoints"`
	LastCheckpointLSN       uint64 `json:"lastCheckpointLSN"`
	LastCheckpointWatermark int64  `json:"lastCheckpointWatermark"`
	LastCheckpointError     string `json:"lastCheckpointError,omitempty"`
	// Recovery is the summary of this session's OpenDurable, embedded so
	// its fields sit beside the WAL's in JSON.
	Recovery
}

// DurabilityStats returns current durability counters; the zero value when
// the session is not durable.
func (s *Session) DurabilityStats() DurabilityStats {
	d := s.dur
	if d == nil {
		return DurabilityStats{}
	}
	ls := d.log.LogStats()
	st := DurabilityStats{
		Enabled:                 true,
		Dir:                     d.opts.Dir,
		WALSegments:             ls.Segments,
		WALBytes:                ls.Bytes,
		WALLastLSN:              ls.LastLSN,
		WALAppends:              ls.Appended,
		WALSyncs:                ls.Syncs,
		Checkpoints:             d.ckpts.Load(),
		LastCheckpointLSN:       d.lastCkptLSN.Load(),
		LastCheckpointWatermark: d.lastCkptWM.Load(),
		Recovery:                d.recovery,
	}
	d.errMu.Lock()
	if d.lastCkptErr != nil {
		st.LastCheckpointError = d.lastCkptErr.Error()
	}
	d.errMu.Unlock()
	return st
}

// Durable reports whether this query survives recovery: registered on a
// durable session with serializable options (no custom Neighborhood
// function).
func (q *Query) Durable() bool { return q.durable }
