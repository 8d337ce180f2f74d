package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/agg"
	"repro/internal/graph"
)

// A checkpoint serializes everything a session needs to restart without
// replaying the whole log: the data graph (free list included, so NodeAdd
// id reuse replays identically), the registered query specs (opaque
// session-layer blobs), and the per-writer window suffixes that rebuild
// every engine's windows, PAOs and scalar state when replayed through the
// normal write path. It is tagged with the WAL position it covers (records
// with LSN > Checkpoint.LSN form the replay tail) and the low watermark.
//
// Atomicity: the file is written as ckpt-<seq>.tmp, fsynced, then renamed
// to ckpt-<seq>.ckpt — a crash mid-write leaves a .tmp that recovery
// ignores. A whole-file CRC rejects partially-persisted or bit-rotted
// checkpoints; recovery falls back to the previous one (the last two are
// retained).

const (
	ckptMagic   = 0x45414743 // "EAGC"
	ckptVersion = 1
	keepCkpts   = 2
)

// WriterWindow is one writer's in-window suffix in a checkpoint.
type WriterWindow struct {
	Node    graph.NodeID
	Entries []agg.WindowEntry
}

// GroupWindows is one compiled system's window suffixes, keyed by the
// session layer's canonical group identity. Windows are kept per group —
// never merged across groups — because different retention policies mean
// one group's suffix may contain entries another has already expired.
type GroupWindows struct {
	Key     string
	Windows []WriterWindow
}

// Checkpoint is the serialized session image.
type Checkpoint struct {
	// LSN is the WAL position the image covers: replay records > LSN.
	LSN uint64
	// NextOrd is the global event-stream ordinal at the cut.
	NextOrd uint64
	// Watermark/MaxTS restore the time domain (math.MinInt64 = unset).
	Watermark int64
	MaxTS     int64
	// NextQueryID restores the session's id allocator.
	NextQueryID uint64
	// Graph is the graph.Save encoding of the data graph.
	Graph []byte
	// Queries holds one opaque session-layer blob per live durable query,
	// in registration order.
	Queries [][]byte
	// Windows holds each compiled group's per-writer window suffixes.
	Windows []GroupWindows
}

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%08d.ckpt", seq) }

// encodeCheckpoint serializes c: the body followed by its CRC, laid out in
// one buffer of its exact size.
func encodeCheckpoint(c *Checkpoint) []byte {
	size := 48 + 4 + len(c.Graph) + 4 + 4
	for _, q := range c.Queries {
		size += 4 + len(q)
	}
	for _, gw := range c.Windows {
		size += 4 + len(gw.Key) + 4
		for _, ww := range gw.Windows {
			size += 8 + 16*len(ww.Entries)
		}
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size+4)
	buf = le.AppendUint32(buf, ckptMagic)
	buf = le.AppendUint32(buf, ckptVersion)
	buf = le.AppendUint64(buf, c.LSN)
	buf = le.AppendUint64(buf, c.NextOrd)
	buf = le.AppendUint64(buf, uint64(c.Watermark))
	buf = le.AppendUint64(buf, uint64(c.MaxTS))
	buf = le.AppendUint64(buf, c.NextQueryID)
	buf = le.AppendUint32(buf, uint32(len(c.Graph)))
	buf = append(buf, c.Graph...)
	buf = le.AppendUint32(buf, uint32(len(c.Queries)))
	for _, q := range c.Queries {
		buf = le.AppendUint32(buf, uint32(len(q)))
		buf = append(buf, q...)
	}
	buf = le.AppendUint32(buf, uint32(len(c.Windows)))
	for _, gw := range c.Windows {
		buf = le.AppendUint32(buf, uint32(len(gw.Key)))
		buf = append(buf, gw.Key...)
		buf = le.AppendUint32(buf, uint32(len(gw.Windows)))
		for _, ww := range gw.Windows {
			buf = le.AppendUint32(buf, uint32(ww.Node))
			buf = le.AppendUint32(buf, uint32(len(ww.Entries)))
			for _, e := range ww.Entries {
				buf = le.AppendUint64(buf, uint64(e.V))
				buf = le.AppendUint64(buf, uint64(e.TS))
			}
		}
	}
	return le.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// WriteCheckpoint atomically persists c under sequence number seq.
func WriteCheckpoint(fs FS, seq uint64, c *Checkpoint) error {
	data := encodeCheckpoint(c)
	tmp := ckptName(seq) + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := fs.Rename(tmp, ckptName(seq)); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	pruneCheckpoints(fs, seq)
	return nil
}

// pruneCheckpoints removes checkpoints older than the keepCkpts newest,
// plus any leftover .tmp files. Best-effort.
func pruneCheckpoints(fs FS, latest uint64) {
	names, err := fs.List()
	if err != nil {
		return
	}
	var seqs []uint64
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(name, "ckpt-%d.ckpt", &seq); err == nil && ckptName(seq) == name {
			seqs = append(seqs, seq)
		} else if _, err := fmt.Sscanf(name, "ckpt-%d.ckpt.tmp", &seq); err == nil && seq != latest {
			_ = fs.Remove(name)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for i, seq := range seqs {
		if i >= keepCkpts {
			_ = fs.Remove(ckptName(seq))
		}
	}
}

// LoadLatestCheckpoint returns the newest checkpoint that passes
// validation, trying older ones when the newest is damaged (e.g. a crash
// during rename, or corruption after it). Returns (nil, 0, nil) when no
// valid checkpoint exists.
func LoadLatestCheckpoint(fs FS) (*Checkpoint, uint64, error) {
	names, err := fs.List()
	if err != nil {
		return nil, 0, fmt.Errorf("wal: load checkpoint: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(name, "ckpt-%d.ckpt", &seq); err == nil && ckptName(seq) == name {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		c, err := readCheckpoint(fs, ckptName(seq))
		if err == nil {
			return c, seq, nil
		}
	}
	return nil, 0, nil
}

func readCheckpoint(fs FS, name string) (*Checkpoint, error) {
	r, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	c, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: %w", name, err)
	}
	return c, nil
}

// decodeCheckpoint is the inverse of encodeCheckpoint. The bytes come from
// disk, so nothing in them is trusted beyond the CRC: every count is
// checked against what is left of the file before anything is sized from
// it, a count that overruns is an error (never a shorter image), and so
// are bytes left over after the last group — a decoded checkpoint always
// re-encodes to exactly the bytes it came from.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 48+4 {
		return nil, fmt.Errorf("too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("failed CRC")
	}
	// off is the read position in body; a read past its end sets rerr and
	// every later read returns zero.
	off := 0
	var rerr error
	next := func(n int) []byte {
		if rerr != nil {
			return nil
		}
		if len(body)-off < n {
			rerr = io.ErrUnexpectedEOF
			return nil
		}
		off += n
		return body[off-n : off]
	}
	u32 := func() uint32 {
		if b := next(4); b != nil {
			return binary.LittleEndian.Uint32(b)
		}
		return 0
	}
	u64 := func() uint64 {
		if b := next(8); b != nil {
			return binary.LittleEndian.Uint64(b)
		}
		return 0
	}
	// count reads an element count and rejects one whose elements, at
	// their minimum encoded size, cannot fit in the bytes that remain.
	count := func(what string, minSize int64) uint32 {
		n := u32()
		if left := int64(len(body) - off); rerr == nil && int64(n)*minSize > left {
			rerr = fmt.Errorf("%s count %d overruns the %d bytes left", what, n, left)
		}
		return n
	}
	readBlob := func() []byte {
		n := count("blob byte", 1)
		if rerr != nil {
			return nil
		}
		return bytes.Clone(next(int(n)))
	}
	if u32() != ckptMagic {
		return nil, fmt.Errorf("bad magic")
	}
	if v := u32(); v != ckptVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	c := &Checkpoint{}
	c.LSN = u64()
	c.NextOrd = u64()
	c.Watermark = int64(u64())
	c.MaxTS = int64(u64())
	c.NextQueryID = u64()
	c.Graph = readBlob()
	nq := count("query", 4)
	for i := uint32(0); i < nq && rerr == nil; i++ {
		c.Queries = append(c.Queries, readBlob())
	}
	ng := count("window group", 8)
	for gi := uint32(0); gi < ng && rerr == nil; gi++ {
		gw := GroupWindows{Key: string(readBlob())}
		nw := count("writer window", 8)
		for i := uint32(0); i < nw && rerr == nil; i++ {
			ww := WriterWindow{Node: graph.NodeID(int32(u32()))}
			ne := count("window entry", 16)
			if rerr != nil {
				break
			}
			ww.Entries = make([]agg.WindowEntry, ne)
			for j := range ww.Entries {
				ww.Entries[j] = agg.WindowEntry{V: int64(u64()), TS: int64(u64())}
			}
			gw.Windows = append(gw.Windows, ww)
		}
		c.Windows = append(c.Windows, gw)
	}
	if rerr == nil && off != len(body) {
		rerr = fmt.Errorf("%d bytes after the last window group", len(body)-off)
	}
	if rerr != nil {
		return nil, rerr
	}
	return c, nil
}
