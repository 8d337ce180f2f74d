package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/graph"
)

// segBytes renders a valid one-segment log (batch + register + expire)
// through the real writer and returns the raw file, for seeding the fuzzer
// with well-formed input it can mutate into near-valid corruption.
func segBytes(f *testing.F) []byte {
	dir := f.TempDir()
	fs, err := NewOsFS(dir)
	if err != nil {
		f.Fatal(err)
	}
	l, err := Open(fs, Options{Policy: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := l.AppendBatch([]graph.Event{
		{Kind: graph.ContentWrite, Node: 1, Value: 7, TS: 5},
		{Kind: graph.EdgeAdd, Node: 2, Peer: 3, TS: 6},
	}); err != nil {
		f.Fatal(err)
	}
	if _, err := l.AppendRegister(1, []byte(`{"aggregate":"sum"}`)); err != nil {
		f.Fatal(err)
	}
	if _, _, err := l.Append(nil, 9); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWALScan throws arbitrary bytes at the recovery path as the first
// segment of a log. Whatever the bytes, Open must not panic; when it
// succeeds, the recovered log must scan cleanly, stay appendable, and a
// clean-close reopen must see the appended record's LSN with no further
// truncation — the crash-recovery contract for any on-disk state.
func FuzzWALScan(f *testing.F) {
	real := segBytes(f)
	hdr := make([]byte, segHdrLen)
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	f.Add([]byte{})
	f.Add(append([]byte{}, hdr...))
	f.Add(append(append([]byte{}, hdr...), 0xde, 0xad, 0xbe, 0xef))
	f.Add(real)
	f.Add(real[:len(real)-3])                              // torn final record
	f.Add(append(slices.Clone(real), hdr...))              // valid log + garbage tail
	f.Add(append(slices.Clone(real), real[segHdrLen:]...)) // duplicated records: LSN continuity break

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := NewOsFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(fs, Options{Policy: SyncNone})
		if err != nil {
			// Only fs failures reach here; corruption is truncated, not
			// reported. Nothing to assert against a dead filesystem.
			t.Skip()
		}
		scanned := 0
		var lastDelivered uint64
		if err := l.Scan(0, func(r Record) error {
			scanned++
			lastDelivered = r.LSN
			return nil
		}); err != nil {
			t.Fatalf("scan after recovery: %v", err)
		}
		deliveredAll := lastDelivered == l.LastLSN()
		lsn, _, err := l.AppendBatch([]graph.Event{{Kind: graph.ContentWrite, Node: 1, Value: 42, TS: 10}})
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		l2, err := Open(fs, Options{Policy: SyncNone})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if l2.Truncated() {
			t.Fatal("reopen after clean close reports truncation")
		}
		if got := l2.LastLSN(); got != lsn {
			t.Fatalf("reopen LastLSN = %d, want appended %d", got, lsn)
		}
		rescanned := 0
		if err := l2.Scan(0, func(Record) error { rescanned++; return nil }); err != nil {
			t.Fatalf("rescan: %v", err)
		}
		// A frame-valid record with an undecodable body (CRC-correct junk
		// type) stops delivery without erroring, so the appended record is
		// only guaranteed to surface when the first scan delivered the
		// whole log.
		if deliveredAll && rescanned != scanned+1 {
			t.Fatalf("rescan delivered %d records, want %d", rescanned, scanned+1)
		}
		if !deliveredAll && rescanned != scanned {
			t.Fatalf("rescan delivered %d records, first scan %d", rescanned, scanned)
		}
	})
}

// sampleCheckpoint is a checkpoint with every section populated.
func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		LSN: 10, NextOrd: 42, Watermark: 99, MaxTS: 120, NextQueryID: 3,
		Graph:   []byte("graph-bytes"),
		Queries: [][]byte{[]byte(`{"aggregate":"sum"}`), []byte(`{"aggregate":"topk(3)","windowTuples":4}`)},
		Windows: []GroupWindows{
			{Key: "sum|t10", Windows: []WriterWindow{
				{Node: 1, Entries: []agg.WindowEntry{{V: 7, TS: 5}, {V: -2, TS: 6}}},
				{Node: 4, Entries: []agg.WindowEntry{{V: 1, TS: 9}}},
			}},
			{Key: "topk|c4", Windows: []WriterWindow{{Node: 2}}},
		},
	}
}

// withCRC appends body's checksum, the way the writer seals a file.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clone(body), crc32.Checksum(body, crcTable))
}

// TestCheckpointDecodeRejectsTruncatedImages pins the decoder's two
// all-or-nothing rules on CRC-valid files: a count that overruns the file
// is an error (it used to end the section early and return the shorter
// image with a nil error), and so are bytes after the last group.
func TestCheckpointDecodeRejectsTruncatedImages(t *testing.T) {
	file := encodeCheckpoint(sampleCheckpoint())
	body := file[:len(file)-4]
	if c, err := decodeCheckpoint(file); err != nil || !bytes.Equal(encodeCheckpoint(c), file) {
		t.Fatalf("well-formed checkpoint: %+v, %v", c, err)
	}
	// Offsets of the four counts in sampleCheckpoint's encoding.
	nq := 48 + 4 + len("graph-bytes")
	ng := nq + 4 + 4 + len(`{"aggregate":"sum"}`) + 4 + len(`{"aggregate":"topk(3)","windowTuples":4}`)
	nw := ng + 4 + 4 + len("sum|t10")
	ne := nw + 4 + 4
	for name, off := range map[string]int{"queries": nq, "groups": ng, "writer windows": nw, "entries": ne} {
		bad := slices.Clone(body)
		binary.LittleEndian.PutUint32(bad[off:], 1<<30)
		if c, err := decodeCheckpoint(withCRC(bad)); err == nil {
			t.Errorf("overrunning %s count decoded to %+v with a nil error", name, c)
		}
	}
	if c, err := decodeCheckpoint(withCRC(append(slices.Clone(body), 0, 0, 0, 0))); err == nil {
		t.Errorf("trailing bytes decoded to %+v with a nil error", c)
	}
	// Through the file system: a damaged newest checkpoint falls back to
	// the previous one instead of loading as a shorter image.
	dir := t.TempDir()
	fs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(fs, 1, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(body)
	binary.LittleEndian.PutUint32(bad[nq:], 1<<30)
	if err := os.WriteFile(filepath.Join(dir, ckptName(2)), withCRC(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, seq, err := LoadLatestCheckpoint(fs); err != nil || seq != 1 {
		t.Fatalf("LoadLatestCheckpoint = seq %d, %v; want the fallback to seq 1", seq, err)
	}
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint decoder as
// a file body, sealing each input with a correct CRC so it gets past the
// checksum and into the parser. Whatever the bytes, decoding must not
// panic or size an allocation from an unchecked count; and it either
// fails, or yields an image whose re-encoding is the input byte for byte —
// no input decodes "successfully" into less than it contains.
func FuzzCheckpointDecode(f *testing.F) {
	for _, c := range []*Checkpoint{{}, {LSN: 30, Watermark: math.MinInt64, MaxTS: math.MinInt64}, sampleCheckpoint()} {
		file := encodeCheckpoint(c) // the bytes WriteCheckpoint puts on disk
		body := file[:len(file)-4]
		f.Add(body)
		f.Add(body[:len(body)-5])                     // cut inside the last section
		f.Add(append(slices.Clone(body), 1, 2, 3, 4)) // trailing bytes
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		file := withCRC(body)
		c, err := decodeCheckpoint(file)
		if err != nil {
			return
		}
		if again := encodeCheckpoint(c); !bytes.Equal(again, file) {
			t.Fatalf("decoded image re-encodes to %d bytes, input was %d:\n in  %x\n out %x", len(again), len(file), file, again)
		}
	})
}
