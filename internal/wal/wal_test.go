package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/graph"
)

func testEvents(n int, base int64) []graph.Event {
	evs := make([]graph.Event, n)
	for i := range evs {
		evs[i] = graph.Event{
			Kind:  graph.ContentWrite,
			Node:  graph.NodeID(i % 7),
			Peer:  -1,
			Value: int64(i) * 3,
			TS:    base + int64(i),
		}
	}
	return evs
}

func openTestLog(t *testing.T, fs FS, opts Options) *Log {
	t.Helper()
	l, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Scan(from, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs
}

func TestAppendScanRoundTrip(t *testing.T) {
	fs, err := NewOsFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, fs, Options{})
	evs := testEvents(5, 100)
	lsn1, ord1, err := l.AppendBatch(evs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if lsn1 != 1 || ord1 != 0 {
		t.Fatalf("first batch lsn=%d ord=%d, want 1,0", lsn1, ord1)
	}
	if _, err := l.AppendRegister(7, []byte(`{"spec":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(nil, 12345); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRetire(7); err != nil {
		t.Fatal(err)
	}
	_, ord2, err := l.AppendBatch(testEvents(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	if ord2 != 5 {
		t.Fatalf("second batch ord=%d, want 5", ord2)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, fs, Options{})
	if l2.Truncated() {
		t.Fatal("clean log reported truncated")
	}
	if got := l2.NextOrd(); got != 8 {
		t.Fatalf("NextOrd after reopen = %d, want 8", got)
	}
	recs := collect(t, l2, 1)
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	if recs[0].Type != RecBatch || len(recs[0].Events) != 5 || recs[0].FirstOrd != 0 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	for i, ev := range recs[0].Events {
		if ev != evs[i] {
			t.Fatalf("event %d round-trip mismatch: %+v != %+v", i, ev, evs[i])
		}
	}
	if recs[1].Type != RecRegister || recs[1].QueryID != 7 || string(recs[1].Blob) != `{"spec":"x"}` {
		t.Fatalf("rec1 = %+v", recs[1])
	}
	if recs[2].Type != RecExpire || recs[2].TS != 12345 {
		t.Fatalf("rec2 = %+v", recs[2])
	}
	if recs[3].Type != RecRetire || recs[3].QueryID != 7 {
		t.Fatalf("rec3 = %+v", recs[3])
	}
	// Scan from a mid LSN only yields the tail.
	if tail := collect(t, l2, 4); len(tail) != 2 {
		t.Fatalf("tail scan got %d records, want 2", len(tail))
	}
	l2.Close()
}

// listFiles returns the directory's file names.
func listFiles(t *testing.T, fs FS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestSegmentRollAndPrune(t *testing.T) {
	fs, err := NewOsFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Tiny segments force rolls every couple of records.
	l := openTestLog(t, fs, Options{SegmentBytes: 256, Policy: SyncNone})
	for i := 0; i < 40; i++ {
		if _, _, err := l.AppendBatch(testEvents(2, int64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.LogStats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	// Prune everything below the last LSN: all but the live tail is
	// removed from the directory.
	l.Prune(st.LastLSN - 1)
	st2 := l.LogStats()
	if st2.Segments >= st.Segments {
		t.Fatalf("prune kept %d of %d segments", st2.Segments, st.Segments)
	}
	if names := listFiles(t, fs); len(names) != st2.Segments {
		t.Fatalf("after prune the directory holds %v, want %d segment files", names, st2.Segments)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := l.AppendBatch(testEvents(2, 1000+int64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	if names, st3 := listFiles(t, fs), l.LogStats(); len(names) != st3.Segments {
		t.Fatalf("after rolls the directory holds %v, want %d segment files", names, st3.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: only the surviving records replay, in LSN order.
	l2 := openTestLog(t, fs, Options{SegmentBytes: 256})
	recs := collect(t, l2, 1)
	var prev uint64
	for _, r := range recs {
		if r.LSN <= prev {
			t.Fatalf("LSN order violated: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
	}
	if prev != 60 {
		t.Fatalf("last LSN after reopen = %d, want 60", prev)
	}
	l2.Close()
}

func corruptTail(t *testing.T, dir string, mutate func(name string, data []byte) []byte) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.seg", &seq); err == nil {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no wal segment found")
	}
	p := filepath.Join(dir, last)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, mutate(last, data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeThree(t *testing.T, dir string) {
	t.Helper()
	fs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, fs, Options{})
	for i := 0; i < 3; i++ {
		if _, _, err := l.AppendBatch(testEvents(4, int64(i)*100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func reopenExpect(t *testing.T, dir string, wantRecs int, wantTruncated bool) {
	t.Helper()
	fs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(fs, Options{})
	if err != nil {
		t.Fatalf("Open after corruption: %v", err)
	}
	defer l.Close()
	if l.Truncated() != wantTruncated {
		t.Fatalf("Truncated() = %v, want %v", l.Truncated(), wantTruncated)
	}
	recs := collect(t, l, 1)
	if len(recs) != wantRecs {
		t.Fatalf("recovered %d records, want %d", len(recs), wantRecs)
	}
	// The log must accept appends after the cut.
	if _, _, err := l.AppendBatch(testEvents(1, 999)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got := collect(t, l, 1); len(got) != wantRecs+1 {
		t.Fatalf("after append got %d records, want %d", len(got), wantRecs+1)
	}
}

func TestTornTailTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	corruptTail(t, dir, func(_ string, data []byte) []byte {
		return data[:len(data)-7] // cut into the last record
	})
	reopenExpect(t, dir, 2, true)
}

func TestTornTailBadCRC(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	corruptTail(t, dir, func(_ string, data []byte) []byte {
		data[len(data)-3] ^= 0xFF // flip a byte inside the last payload
		return data
	})
	reopenExpect(t, dir, 2, true)
}

func TestTornTailZeroFilled(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	corruptTail(t, dir, func(_ string, data []byte) []byte {
		// Preallocated-but-unwritten tail: zeros after the valid records.
		return append(data, make([]byte, 512)...)
	})
	reopenExpect(t, dir, 3, true)
}

func TestTornTailMidLogCorruptionDropsRest(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, fs, Options{SegmentBytes: 200})
	for i := 0; i < 12; i++ {
		if _, _, err := l.AppendBatch(testEvents(2, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.LogStats(); st.Segments < 3 {
		t.Fatalf("want >=3 segments, got %d", st.Segments)
	}
	l.Close()
	// Corrupt the SECOND segment: everything from there on is dropped,
	// because a real crash only ever damages the tail — damage earlier
	// means the later segments postdate it and cannot be trusted.
	ents, _ := os.ReadDir(dir)
	var segNames []string
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.seg", &seq); err == nil {
			segNames = append(segNames, e.Name())
		}
	}
	if len(segNames) < 3 {
		t.Fatalf("want >=3 segment files, got %d", len(segNames))
	}
	p := filepath.Join(dir, segNames[1])
	data, _ := os.ReadFile(p)
	data[len(data)-3] ^= 0xFF
	os.WriteFile(p, data, 0o644)

	fs2, _ := NewOsFS(dir)
	l2, err := Open(fs2, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Truncated() {
		t.Fatal("expected truncation report")
	}
	recs := collect(t, l2, 1)
	last := recs[len(recs)-1].LSN
	if last >= 12 {
		t.Fatalf("mid-log corruption kept %d records through LSN %d", len(recs), last)
	}
	// Later segments were removed, not left as garbage.
	for _, name := range segNames[2:] {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("dropped segment %s still in the directory (stat: %v)", name, err)
		}
	}
	if names := listFiles(t, fs2); len(names) != l2.LogStats().Segments {
		t.Fatalf("directory holds %v, want %d segment files", names, l2.LogStats().Segments)
	}
}

// TestOpenRemovesPooledSegment: older builds renamed dead segments to
// walfree-<seq>.seg for reuse instead of removing them. Open removes such a
// file and scans the live segments exactly as before.
func TestOpenRemovesPooledSegment(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, fs, Options{SegmentBytes: 256, Policy: SyncNone})
	for i := 0; i < 12; i++ {
		if _, _, err := l.AppendBatch(testEvents(2, int64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l1 := openTestLog(t, fs, Options{SegmentBytes: 256})
	want := collect(t, l1, 1)
	l1.Close()
	// A pooled file holds a dead segment's old bytes.
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	pooled := filepath.Join(dir, "walfree-00000003.seg")
	if err := os.WriteFile(pooled, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, fs, Options{SegmentBytes: 256})
	defer l2.Close()
	if _, err := os.Stat(pooled); !os.IsNotExist(err) {
		t.Fatalf("pooled segment survived Open (stat: %v)", err)
	}
	if got := collect(t, l2, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan after removal = %+v, want %+v", got, want)
	}
}

// removeFailFS refuses to remove one file.
type removeFailFS struct {
	FS
	fail string
}

func (f removeFailFS) Remove(name string) error {
	if name == f.fail {
		return errors.New("remove refused")
	}
	return f.FS.Remove(name)
}

// TestFailedRemoveLeavesNoHole: Prune stops at a segment it cannot remove,
// so the directory never holds a gap in the LSN sequence; and Open fails
// rather than leave a dead tail segment to be scanned again.
func TestFailedRemoveLeavesNoHole(t *testing.T) {
	dir := t.TempDir()
	osfs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, removeFailFS{FS: osfs, fail: "wal-00000002.seg"}, Options{SegmentBytes: 256, Policy: SyncNone})
	for i := 0; i < 40; i++ {
		if _, _, err := l.AppendBatch(testEvents(2, int64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.LogStats()
	l.Prune(st.LastLSN - 1)
	if got := l.LogStats().Segments; got != st.Segments-1 {
		t.Fatalf("prune past a failed removal kept %d of %d segments, want %d", got, st.Segments, st.Segments-1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openTestLog(t, osfs, Options{SegmentBytes: 256})
	recs := collect(t, l2, 1)
	if l2.Truncated() || len(recs) == 0 || recs[len(recs)-1].LSN != st.LastLSN {
		t.Fatalf("reopen after a failed prune: truncated=%v, %d records", l2.Truncated(), len(recs))
	}
	l2.Close()

	// Tear segment 2: segment 3 on is dead tail, and its removal fails.
	p := filepath.Join(dir, "wal-00000002.seg")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l3, err := Open(removeFailFS{FS: osfs, fail: "wal-00000003.seg"}, Options{SegmentBytes: 256}); err == nil {
		l3.Close()
		t.Fatal("Open kept a dead segment it could not remove")
	}
}

func TestCheckpointRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &Checkpoint{
		LSN: 10, NextOrd: 40, Watermark: 77, MaxTS: 99, NextQueryID: 3,
		Graph:   []byte("graph-bytes-1"),
		Queries: [][]byte{[]byte(`{"id":1}`), []byte(`{"id":2}`)},
		Windows: []GroupWindows{{Key: "agg=sum|wc=4", Windows: []WriterWindow{
			{Node: 4, Entries: []agg.WindowEntry{{V: 5, TS: 6}, {V: 7, TS: 8}}},
		}}},
	}
	if err := WriteCheckpoint(fs, 1, c1); err != nil {
		t.Fatal(err)
	}
	c2 := &Checkpoint{LSN: 20, NextOrd: 80, Watermark: math.MinInt64, MaxTS: 120, NextQueryID: 5, Graph: []byte("graph-bytes-2")}
	if err := WriteCheckpoint(fs, 2, c2); err != nil {
		t.Fatal(err)
	}
	got, seq, err := LoadLatestCheckpoint(fs)
	if err != nil || got == nil {
		t.Fatalf("load: %v / %v", got, err)
	}
	if seq != 2 || got.LSN != 20 || got.NextOrd != 80 || got.Watermark != math.MinInt64 || string(got.Graph) != "graph-bytes-2" {
		t.Fatalf("latest checkpoint mismatch: seq=%d %+v", seq, got)
	}
	// Corrupt the newest: loader falls back to the previous one.
	p := filepath.Join(dir, ckptName(2))
	data, _ := os.ReadFile(p)
	data[len(data)/2] ^= 0x01
	os.WriteFile(p, data, 0o644)
	got, seq, err = LoadLatestCheckpoint(fs)
	if err != nil || got == nil {
		t.Fatalf("fallback load: %v / %v", got, err)
	}
	if seq != 1 || got.LSN != 10 || len(got.Queries) != 2 || len(got.Windows) != 1 {
		t.Fatalf("fallback checkpoint mismatch: seq=%d %+v", seq, got)
	}
	gw := got.Windows[0]
	if gw.Key != "agg=sum|wc=4" || len(gw.Windows) != 1 ||
		gw.Windows[0].Node != 4 || len(gw.Windows[0].Entries) != 2 || gw.Windows[0].Entries[1].V != 7 {
		t.Fatalf("window entries mismatch: %+v", gw)
	}

	// Retention: a third checkpoint prunes the first.
	if err := WriteCheckpoint(fs, 3, &Checkpoint{LSN: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(1))); !os.IsNotExist(err) {
		t.Fatalf("checkpoint 1 should be pruned, stat err=%v", err)
	}
}

func TestCheckpointIgnoresTmp(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(fs, 1, &Checkpoint{LSN: 10}); err != nil {
		t.Fatal(err)
	}
	// A crash mid-checkpoint leaves a garbage .tmp that must not be loaded.
	os.WriteFile(filepath.Join(dir, ckptName(2)+".tmp"), []byte("partial junk"), 0o644)
	got, seq, err := LoadLatestCheckpoint(fs)
	if err != nil || got == nil || seq != 1 || got.LSN != 10 {
		t.Fatalf("tmp leaked into load: seq=%d %+v err=%v", seq, got, err)
	}
	// The next successful checkpoint clears the stale tmp.
	if err := WriteCheckpoint(fs, 3, &Checkpoint{LSN: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(2)+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not pruned, stat err=%v", err)
	}
}

func TestFaultFSCrashPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(inner, FaultConfig{CrashAtWrite: 4, ShortWrite: true})
	l, err := Open(ffs, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var appended int
	for i := 0; i < 10; i++ {
		if _, _, err := l.AppendBatch(testEvents(3, int64(i)*10)); err != nil {
			break
		}
		appended++
	}
	if !ffs.Crashed() {
		t.Fatal("fault never fired")
	}
	if appended >= 10 {
		t.Fatal("all appends succeeded past the crash point")
	}
	// Poisoned: nothing more goes in, ever.
	if _, _, err := l.AppendBatch(testEvents(1, 0)); err == nil {
		t.Fatal("append succeeded on a poisoned log")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync succeeded on a poisoned log")
	}
	l.Close()

	// Recovery on the real FS: the short write left a torn record that the
	// scan truncates; every batch that was acknowledged before the crash
	// write (i.e. fully written) survives.
	fs2, _ := NewOsFS(dir)
	l2, err := Open(fs2, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer l2.Close()
	if !l2.Truncated() {
		t.Fatal("short write should leave a torn tail")
	}
	recs := collect(t, l2, 1)
	if len(recs) != appended {
		t.Fatalf("recovered %d batches, want %d (the acknowledged ones)", len(recs), appended)
	}
	if got, want := l2.NextOrd(), uint64(appended*3); got != want {
		t.Fatalf("NextOrd = %d, want %d", got, want)
	}
}

func TestFaultFSCleanCut(t *testing.T) {
	// Crash with ShortWrite=false: the record never touches disk at all, so
	// recovery sees a perfectly clean log ending at the previous record.
	dir := t.TempDir()
	inner, _ := NewOsFS(dir)
	ffs := NewFaultFS(inner, FaultConfig{CrashAtWrite: 5})
	l, err := Open(ffs, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var appended int
	for i := 0; i < 10; i++ {
		if _, _, err := l.AppendBatch(testEvents(2, int64(i))); err != nil {
			break
		}
		appended++
	}
	l.Close()
	fs2, _ := NewOsFS(dir)
	l2, err := Open(fs2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := collect(t, l2, 1); len(recs) != appended {
		t.Fatalf("recovered %d, want %d", len(recs), appended)
	}
}

// TestAppendClosesTimeInOneWrite: a batch and the advance that closes its
// time are two ordinary records — consecutive LSNs, decoded as ever — framed
// into ONE File.Write; either half alone is one record; and a tail torn
// inside the second record leaves the first to replay, exactly what a crash
// between two separate appends left.
func TestAppendClosesTimeInOneWrite(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewOsFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(inner, FaultConfig{}) // counts writes, never faults
	l := openTestLog(t, ffs, Options{Policy: SyncNone})
	appendAt := func(events []graph.Event, advanceTo int64, wantLSN uint64, wantWrites int64) {
		t.Helper()
		before := ffs.Writes()
		if l.LastLSN() == 0 {
			before++ // the first append also writes the segment header
		}
		lsn, _, err := l.Append(events, advanceTo)
		if err != nil || lsn != wantLSN || ffs.Writes()-before != wantWrites {
			t.Fatalf("Append(%d events, %d) = lsn %d, %v in %d writes; want lsn %d in %d",
				len(events), advanceTo, lsn, err, ffs.Writes()-before, wantLSN, wantWrites)
		}
	}
	appendAt(testEvents(3, 10), 12, 2, 1)
	appendAt(nil, 20, 3, 1)
	appendAt(testEvents(2, 30), graph.NoAdvance, 4, 1)
	appendAt(nil, graph.NoAdvance, 4, 0) // nothing to say: nothing written
	appendAt(testEvents(1, 40), 41, 6, 1)
	if st := l.LogStats(); st.Appended != 6 || l.NextOrd() != 6 {
		t.Fatalf("%d records, next ordinal %d; want 6 and 6", st.Appended, l.NextOrd())
	}
	l.Close()

	// Tear the tail inside the last record, the final pair's advance.
	seg := filepath.Join(dir, "wal-00000001.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2 := openTestLog(t, inner, Options{})
	defer l2.Close()
	var got []string
	for _, r := range collect(t, l2, 1) {
		got = append(got, fmt.Sprintf("%d:%d:%d:%d", r.LSN, r.Type, len(r.Events), r.TS))
	}
	want := []string{"1:1:3:0", "2:4:0:12", "3:4:0:20", "4:1:2:0", "5:1:1:0"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered lsn:type:events:ts %v, want %v", got, want)
	}
	if !l2.Truncated() || l2.NextOrd() != 6 {
		t.Fatalf("truncated = %v, NextOrd = %d; want the torn advance dropped and the batch before it kept", l2.Truncated(), l2.NextOrd())
	}
}

// TestAppendBatchSteadyStateAllocs pins the one-buffer record path: once the
// log's record buffer has grown to the batch size, an append encodes header,
// LSN and events in place, checksums in place and writes once — nothing is
// allocated per batch.
func TestAppendBatchSteadyStateAllocs(t *testing.T) {
	fs, err := NewOsFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// No roll and no fsync inside the measured appends.
	l := openTestLog(t, fs, Options{SegmentBytes: 1 << 30, Policy: SyncNone})
	defer l.Close()
	evs := testEvents(256, 1)
	if _, _, err := l.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := l.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendBatch allocates %.0f times per batch, want 0", allocs)
	}
	if got := collect(t, l, 0); len(got) != 102 || len(got[101].Events) != len(evs) || got[101].Events[255] != evs[255] {
		t.Fatalf("scan after %d reused-buffer appends: %d records", 102, len(got))
	}
}
