package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// Record framing, little-endian:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload := u8 type | u64 lsn | body
//
// Every append is written with ONE File.Write call — one record, or a
// batch's RecBatch with the RecExpire of the time it closes right behind it —
// so a crash tears at most the final record; the recovery scan validates
// length, CRC and LSN continuity and truncates the file at the first bad
// byte, which between the two records of a pair is exactly the crash between
// two separate appends older logs could hold. Segments are
// fixed-size-ish files named wal-<seq>.seg; segments made obsolete by a
// checkpoint are removed.

// Record types.
const (
	// RecBatch carries one applied event batch plus the global ordinal of
	// its first event.
	RecBatch uint8 = 1
	// RecRegister carries a query registration: the query id plus an opaque
	// spec blob owned by the session layer.
	RecRegister uint8 = 2
	// RecRetire carries a query retirement by id.
	RecRetire uint8 = 3
	// RecExpire carries a watermark-driven window expiry (ExpireAll ts).
	// Logging expiry makes the replayed window state EXACTLY the applied
	// state, independent of whatever Ingestor runs after recovery.
	RecExpire uint8 = 4
)

const (
	segMagic   = 0x45414757 // "EAGW"
	segVersion = 1
	segHdrLen  = 8
	recHdrLen  = 8                 // payloadLen + crc
	minPayload = 9                 // type + lsn
	maxPayload = 64 << 20          // corruption guard on the scan path
	eventLen   = 1 + 4 + 4 + 8 + 8 // kind, node, peer, value, ts
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an append on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record is
	// never lost.
	SyncAlways SyncPolicy = iota
	// SyncEvery fsyncs when Options.Interval has elapsed since the last
	// sync: the loss window after a crash is bounded by the interval.
	SyncEvery
	// SyncNone never fsyncs on append (the OS flushes on its own
	// schedule); Sync and Close still flush explicitly.
	SyncNone
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "per-batch"
	case SyncEvery:
		return "interval"
	case SyncNone:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options tune a Log; the zero value syncs on every append and rolls
// segments at 4 MiB.
type Options struct {
	SegmentBytes int64
	Policy       SyncPolicy
	// Interval is the SyncEvery flush period (default 100ms).
	Interval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// Record is one decoded log record.
type Record struct {
	Type uint8
	LSN  uint64
	// FirstOrd is the global stream ordinal of Events[0] (RecBatch).
	FirstOrd uint64
	Events   []graph.Event
	// QueryID and Blob belong to RecRegister/RecRetire.
	QueryID uint64
	Blob    []byte
	// TS is the RecExpire expiry timestamp.
	TS int64
}

type segment struct {
	name     string
	seq      uint64
	firstLSN uint64 // 0 while empty
	lastLSN  uint64
	bytes    int64
}

// Log is an append-only, CRC-framed, segmented write-ahead log. Appends are
// serialized internally; LSNs are assigned in append order, so the log
// order IS the replay order.
type Log struct {
	fs   FS
	opts Options

	mu        sync.Mutex
	segs      []*segment // seq order; last is the append target
	cur       File
	nextSeq   uint64
	nextLSN   uint64
	lastSync  time.Time
	broken    error // a failed write poisons the log (crash semantics)
	closed    bool
	truncated bool // a torn tail was dropped during Open
	// ord is the global event-stream ordinal allocator: Append stamps
	// each batch with the ordinal of its first event, which is how a
	// recovery (and its test oracle) identifies the exact persisted prefix.
	ord      uint64
	syncs    int64
	appended int64
	// rec is the one buffer every append is encoded in, reused across
	// appends (File.Write, an io.Writer, may not keep it) and empty between
	// them: one framed record after another (frame), sealed and written
	// together (commitLocked).
	rec []byte
}

// Open scans the directory, truncates any torn tail, and returns a log
// positioned to append after the last valid record. Segments damaged
// mid-file are cut at the first invalid record and every later segment is
// removed — a crash corrupts only the tail, so everything after the first
// bad byte is part of it.
func Open(fs FS, opts Options) (*Log, error) {
	if opts.Policy < SyncAlways || opts.Policy > SyncNone {
		return nil, fmt.Errorf("wal: invalid sync policy %d", int(opts.Policy))
	}
	// nextLSN 0 means "baseline unknown": the first valid record scanned
	// sets it (a pruned log legitimately starts past LSN 1). Continuity is
	// enforced from there on.
	l := &Log{fs: fs, opts: opts.withDefaults(), nextSeq: 1}
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var live []*segment
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err == nil && fmt.Sprintf("wal-%08d.seg", seq) == name {
			live = append(live, &segment{name: name, seq: seq})
			if seq >= l.nextSeq {
				l.nextSeq = seq + 1
			}
			continue
		}
		if _, err := fmt.Sscanf(name, "walfree-%d.seg", &seq); err == nil && fmt.Sprintf("walfree-%08d.seg", seq) == name {
			// A dead segment an older build pooled for reuse. Open never
			// reads one, so a failed removal only leaves it for next time.
			_ = fs.Remove(name)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	// drop removes a dead segment. One left behind would be scanned again
	// at the next Open, as a hole in front of the segments appended since,
	// and cut them off; so a failed removal fails Open.
	drop := func(seg *segment) error {
		if err := fs.Remove(seg.name); err != nil {
			return fmt.Errorf("wal: remove dead segment: %w", err)
		}
		return nil
	}
	torn := false
	for i, seg := range live {
		if torn {
			// Everything past the torn point is tail: remove it.
			if err := drop(seg); err != nil {
				return nil, err
			}
			l.truncated = true
			continue
		}
		ok, err := l.scanSegment(seg, nil, 0)
		if err != nil {
			return nil, err
		}
		if !ok {
			torn = true
			l.truncated = true
			if seg.firstLSN == 0 {
				// Nothing valid in it at all — remove rather than keep an
				// empty husk.
				if err := drop(seg); err != nil {
					return nil, err
				}
				continue
			}
		}
		if seg.firstLSN == 0 && i < len(live)-1 {
			// An empty non-final segment is a crash artifact; drop it.
			if err := drop(seg); err != nil {
				return nil, err
			}
			continue
		}
		l.segs = append(l.segs, seg)
	}
	if n := len(l.segs); n > 0 {
		last := l.segs[n-1]
		if last.bytes < l.opts.SegmentBytes {
			f, err := fs.Append(last.name)
			if err != nil {
				return nil, fmt.Errorf("wal: open tail segment: %w", err)
			}
			l.cur = f
		}
	}
	if l.nextLSN == 0 {
		l.nextLSN = 1 // empty log: LSNs start at 1
	}
	l.lastSync = time.Now()
	return l, nil
}

// scanSegment validates seg record by record. With fn == nil it only
// updates seg's bookkeeping and truncates the file after the last valid
// record when damage is found (returning ok=false). With fn != nil it
// decodes and delivers every record with LSN >= fromLSN instead (no
// truncation — Open already did it).
func (l *Log) scanSegment(seg *segment, fn func(Record) error, fromLSN uint64) (ok bool, err error) {
	r, err := l.fs.Open(seg.name)
	if err != nil {
		return false, fmt.Errorf("wal: scan %s: %w", seg.name, err)
	}
	defer r.Close()
	br := newCountingReader(r)
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil ||
		binary.LittleEndian.Uint32(hdr[0:4]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != segVersion {
		// Header never made it to disk: the whole file is torn tail.
		if fn == nil {
			if terr := l.fs.Truncate(seg.name, 0); terr != nil {
				return false, fmt.Errorf("wal: truncate %s: %w", seg.name, terr)
			}
			seg.bytes = 0
		}
		return false, nil
	}
	good := int64(segHdrLen)
	var frame [recHdrLen]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			break // clean EOF or torn frame header
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		crc := binary.LittleEndian.Uint32(frame[4:8])
		if length < minPayload || length > maxPayload {
			break
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break
		}
		lsn := binary.LittleEndian.Uint64(payload[1:9])
		if lsn == 0 || (l.nextLSN != 0 && lsn != l.nextLSN) {
			break // continuity violation: treat as corruption
		}
		if fn != nil && lsn >= fromLSN {
			rec, derr := decodeRecord(payload)
			if derr != nil {
				break
			}
			if err := fn(rec); err != nil {
				return false, err
			}
		} else if fn == nil {
			// Track the event-ordinal high-water mark for the caller.
			if payload[0] == RecBatch && len(payload) >= minPayload+12 {
				first := binary.LittleEndian.Uint64(payload[9:17])
				count := binary.LittleEndian.Uint32(payload[17:21])
				if end := first + uint64(count); end > l.ord {
					l.ord = end
				}
			}
		}
		if seg.firstLSN == 0 {
			seg.firstLSN = lsn
		}
		seg.lastLSN = lsn
		l.nextLSN = lsn + 1
		good = br.n
	}
	seg.bytes = good
	if size, serr := l.fs.Size(seg.name); serr == nil && size > good {
		if fn == nil {
			if terr := l.fs.Truncate(seg.name, good); terr != nil {
				return false, fmt.Errorf("wal: truncate %s: %w", seg.name, terr)
			}
		}
		return false, nil
	}
	return true, nil
}

// Truncated reports whether Open dropped a torn tail.
func (l *Log) Truncated() bool { return l.truncated }

// NextOrd returns the global event-stream ordinal the next Append will
// stamp. After Open it is one past the largest ordinal the scan saw
// (0 when the log holds no batch records); the session layer raises it to
// the checkpoint's ordinal with SetNextOrd.
func (l *Log) NextOrd() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ord
}

// SetNextOrd raises the ordinal allocator to at least v.
func (l *Log) SetNextOrd(v uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v > l.ord {
		l.ord = v
	}
}

// LastLSN returns the LSN of the last appended (or scanned) record, 0 when
// the log is empty.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Scan replays every record with LSN >= fromLSN in order. It must not run
// concurrently with Append.
func (l *Log) Scan(fromLSN uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]*segment(nil), l.segs...)
	l.mu.Unlock()
	save := l.nextLSN
	for _, seg := range segs {
		if seg.lastLSN != 0 && seg.lastLSN < fromLSN {
			continue
		}
		if seg.firstLSN == 0 {
			continue
		}
		l.nextLSN = seg.firstLSN
		if _, err := l.scanSegment(seg, fn, fromLSN); err != nil {
			l.nextLSN = save
			return err
		}
	}
	l.nextLSN = save
	return nil
}

// rollLocked opens a fresh append segment. Callers hold l.mu.
func (l *Log) rollLocked() error {
	if l.cur != nil {
		if err := l.cur.Sync(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return err
		}
		l.cur = nil
	}
	name := fmt.Sprintf("wal-%08d.seg", l.nextSeq)
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	var hdr [segHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.cur = f
	l.segs = append(l.segs, &segment{name: name, seq: l.nextSeq, bytes: segHdrLen})
	l.nextSeq++
	return nil
}

// Append appends what one applied batch is in the log: events as a RecBatch
// and, when the batch closes time (advanceTo != graph.NoAdvance), a RecExpire
// for advanceTo behind it — both framed in one buffer, so the pair costs one
// Write and one policy sync, and a crash tears it no earlier than a crash
// between two separate appends would. Either half may be absent: no events
// frames no RecBatch. It returns the last LSN written and the global ordinal
// of the first event (ordinals are allocated in append order, so the batch
// covers [firstOrd, firstOrd+len(events))). The records are durable per the
// sync policy when Append returns nil.
func (l *Log) Append(events []graph.Event, advanceTo int64) (lsn, firstOrd uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	firstOrd = l.ord
	if len(events) > 0 {
		body := l.frame(RecBatch, 12+len(events)*eventLen)
		binary.LittleEndian.PutUint64(body[0:8], firstOrd)
		binary.LittleEndian.PutUint32(body[8:12], uint32(len(events)))
		off := 12
		for _, ev := range events {
			body[off] = byte(ev.Kind)
			binary.LittleEndian.PutUint32(body[off+1:], uint32(ev.Node))
			binary.LittleEndian.PutUint32(body[off+5:], uint32(ev.Peer))
			binary.LittleEndian.PutUint64(body[off+9:], uint64(ev.Value))
			binary.LittleEndian.PutUint64(body[off+17:], uint64(ev.TS))
			off += eventLen
		}
	}
	if advanceTo != graph.NoAdvance {
		binary.LittleEndian.PutUint64(l.frame(RecExpire, 8), uint64(advanceTo))
	}
	lsn, err = l.commitLocked()
	if err == nil {
		l.ord += uint64(len(events))
	}
	return lsn, firstOrd, err
}

// AppendBatch is Append for a batch that does not close time.
func (l *Log) AppendBatch(events []graph.Event) (lsn, firstOrd uint64, err error) {
	return l.Append(events, graph.NoAdvance)
}

// AppendRegister appends a query-registration record; blob is an opaque
// session-layer encoding of the query's spec.
func (l *Log) AppendRegister(queryID uint64, blob []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	body := l.frame(RecRegister, 8+len(blob))
	binary.LittleEndian.PutUint64(body[0:8], queryID)
	copy(body[8:], blob)
	return l.commitLocked()
}

// AppendRetire appends a query-retirement record.
func (l *Log) AppendRetire(queryID uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	binary.LittleEndian.PutUint64(l.frame(RecRetire, 8), queryID)
	return l.commitLocked()
}

// frame adds one record of type typ with an n-byte body to the record buffer
// — length and type filled in, LSN and CRC left for commitLocked — and
// returns the body for the caller to encode into before it frames another
// (the buffer may move when it grows). Callers hold l.mu and follow their
// last frame with commitLocked, which leaves the buffer empty again.
func (l *Log) frame(typ uint8, n int) []byte {
	start, size := len(l.rec), recHdrLen+minPayload+n
	l.rec = slices.Grow(l.rec, size)[:start+size]
	rec := l.rec[start:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(minPayload+n))
	rec[recHdrLen] = typ
	return rec[recHdrLen+minPayload:]
}

// commitLocked seals the framed records — next LSNs, CRC over each payload
// in place — and appends them with one Write and one sync per the policy. It
// returns the last LSN written (the log's last LSN when nothing was framed).
func (l *Log) commitLocked() (uint64, error) {
	defer func() { l.rec = l.rec[:0] }()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, l.broken
	}
	rec := l.rec
	if len(rec) == 0 {
		return l.nextLSN - 1, nil
	}
	first, last := l.nextLSN, l.nextLSN-1
	for off := 0; off < len(rec); {
		payload := rec[off+recHdrLen:][:binary.LittleEndian.Uint32(rec[off:])]
		last++
		binary.LittleEndian.PutUint64(payload[1:9], last)
		binary.LittleEndian.PutUint32(rec[off+4:], crc32.Checksum(payload, crcTable))
		off += recHdrLen + len(payload)
	}

	if l.cur == nil || l.curSeg().bytes+int64(len(rec)) > l.opts.SegmentBytes && l.curSeg().firstLSN != 0 {
		if err := l.rollLocked(); err != nil {
			l.broken = fmt.Errorf("wal: roll: %w", err)
			return 0, l.broken
		}
	}
	if _, err := l.cur.Write(rec); err != nil {
		// The records may be partially on disk; nothing later may be
		// appended after them (garbage would interleave), so the log dies
		// here — exactly a crash.
		l.broken = fmt.Errorf("wal: append: %w", err)
		return 0, l.broken
	}
	seg := l.curSeg()
	if seg.firstLSN == 0 {
		seg.firstLSN = first
	}
	seg.lastLSN = last
	seg.bytes += int64(len(rec))
	l.nextLSN = last + 1
	l.appended += int64(last - first + 1)
	switch l.opts.Policy {
	case SyncAlways:
		if err := l.cur.Sync(); err != nil {
			l.broken = fmt.Errorf("wal: sync: %w", err)
			return 0, l.broken
		}
		l.syncs++
	case SyncEvery:
		if now := time.Now(); now.Sub(l.lastSync) >= l.opts.Interval {
			if err := l.cur.Sync(); err != nil {
				l.broken = fmt.Errorf("wal: sync: %w", err)
				return 0, l.broken
			}
			l.syncs++
			l.lastSync = now
		}
	}
	return last, nil
}

func (l *Log) curSeg() *segment { return l.segs[len(l.segs)-1] }

// Sync flushes the append segment to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.cur == nil {
		return nil
	}
	if l.broken != nil {
		return l.broken
	}
	if err := l.cur.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: sync: %w", err)
		return l.broken
	}
	l.syncs++
	l.lastSync = time.Now()
	return nil
}

// Prune removes, oldest first, every segment whose records are all <=
// uptoLSN (covered by a checkpoint), keeping the current append segment.
// It stops at a segment it fails to remove, which stays in the log for the
// next Prune: removing a later one would leave a hole in the LSN sequence.
func (l *Log) Prune(uptoLSN uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for n < len(l.segs)-1 && l.segs[n].lastLSN != 0 && l.segs[n].lastLSN <= uptoLSN {
		if l.fs.Remove(l.segs[n].name) != nil {
			break
		}
		n++
	}
	l.segs = l.segs[n:]
}

// Close flushes and closes the append segment. Further appends return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.cur == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		err = l.cur.Sync()
	}
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	Segments  int
	Bytes     int64
	LastLSN   uint64
	Appended  int64
	Syncs     int64
	Truncated bool
}

// LogStats returns current counters.
func (l *Log) LogStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:  len(l.segs),
		LastLSN:   l.nextLSN - 1,
		Appended:  l.appended,
		Syncs:     l.syncs,
		Truncated: l.truncated,
	}
	for _, seg := range l.segs {
		st.Bytes += seg.bytes
	}
	return st
}

// decodeRecord parses a validated payload into a Record.
func decodeRecord(payload []byte) (Record, error) {
	rec := Record{Type: payload[0], LSN: binary.LittleEndian.Uint64(payload[1:9])}
	body := payload[minPayload:]
	switch rec.Type {
	case RecBatch:
		if len(body) < 12 {
			return rec, fmt.Errorf("wal: short batch body")
		}
		rec.FirstOrd = binary.LittleEndian.Uint64(body[0:8])
		count := binary.LittleEndian.Uint32(body[8:12])
		if int(count)*eventLen != len(body)-12 {
			return rec, fmt.Errorf("wal: batch count %d does not match body", count)
		}
		rec.Events = make([]graph.Event, count)
		off := 12
		for i := range rec.Events {
			rec.Events[i] = graph.Event{
				Kind:  graph.EventKind(body[off]),
				Node:  graph.NodeID(int32(binary.LittleEndian.Uint32(body[off+1:]))),
				Peer:  graph.NodeID(int32(binary.LittleEndian.Uint32(body[off+5:]))),
				Value: int64(binary.LittleEndian.Uint64(body[off+9:])),
				TS:    int64(binary.LittleEndian.Uint64(body[off+17:])),
			}
			off += eventLen
		}
	case RecRegister:
		if len(body) < 8 {
			return rec, fmt.Errorf("wal: short register body")
		}
		rec.QueryID = binary.LittleEndian.Uint64(body[0:8])
		rec.Blob = append([]byte(nil), body[8:]...)
	case RecRetire:
		if len(body) < 8 {
			return rec, fmt.Errorf("wal: short retire body")
		}
		rec.QueryID = binary.LittleEndian.Uint64(body[0:8])
	case RecExpire:
		if len(body) < 8 {
			return rec, fmt.Errorf("wal: short expire body")
		}
		rec.TS = int64(binary.LittleEndian.Uint64(body[0:8]))
	default:
		return rec, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return rec, nil
}

// countingReader tracks how many bytes have been consumed, giving the scan
// the truncation offset of the last fully-valid record. It buffers
// internally and counts what it DELIVERS, so the count is the logical
// offset regardless of read-ahead.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(r io.Reader) *countingReader {
	return &countingReader{r: bufio.NewReaderSize(r, 64<<10)}
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
