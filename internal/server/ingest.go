package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	eagr "repro"
	"repro/internal/graph"
)

// MaxIngestLine bounds one NDJSON event line on /ingest (the scanner
// buffers a line before decoding it).
const MaxIngestLine = 1 << 20

// ingestor returns the server's shared Ingestor, creating it on first use.
// A full apply queue holds the /ingest request body instead of erroring,
// which is HTTP's natural backpressure. The clock is the stream's own
// (eagr.StreamClock): a ts-less event is stamped with the largest timestamp
// accepted so far, in the CLIENT's time domain (logical ticks or wall time,
// whatever it sends), never with a server wall clock that would yank the
// watermark — and with it every time-based window — into the wrong epoch.
func (s *Server) ingestor() (*eagr.Ingestor, error) {
	if ing := s.ing.Load(); ing != nil {
		return ing, nil
	}
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	if s.ingClosed {
		return nil, eagr.ErrIngestorClosed
	}
	if ing := s.ing.Load(); ing != nil {
		return ing, nil
	}
	ing, err := s.sess.Ingest(eagr.IngestOptions{
		BatchSize:         512,
		FlushInterval:     25 * time.Millisecond,
		QueueDepth:        16,
		Clock:             eagr.StreamClock(),
		MaxTimestampJump:  s.maxTSJump,
		DisableAutoExpire: s.manualExpire,
	})
	if err != nil {
		return nil, err
	}
	s.ing.Store(ing)
	return ing, nil
}

// ingestSlab is the pooled decode buffer of one /ingest request: events
// parsed from the body plus their 1-based line numbers, so a batched send
// that stops mid-slab can still report the exact failing line.
type ingestSlab struct {
	evs   []graph.Event
	lines []int
}

// ingestSlabSize is the number of decoded events handed to the Ingestor
// per SendEvents call — one send-mutex acquisition amortized over this
// many lines.
const ingestSlabSize = 512

var slabPool = sync.Pool{New: func() any {
	return &ingestSlab{
		evs:   make([]graph.Event, 0, ingestSlabSize),
		lines: make([]int, 0, ingestSlabSize),
	}
}}

func (sl *ingestSlab) reset() {
	sl.evs = sl.evs[:0]
	sl.lines = sl.lines[:0]
}

// scanErrMessage maps a body-scan failure to its response message: an
// over-long NDJSON line gets a typed, self-describing 400 naming the limit
// (bufio's "token too long" says neither which line nor what the cap is);
// line is the last line successfully scanned.
func scanErrMessage(line int, err error) string {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Sprintf("line %d: event line exceeds the %d-byte limit", line+1, MaxIngestLine)
	}
	return fmt.Sprintf("read body: %v", err)
}

// handleIngest streams NDJSON events into the server's session Ingestor.
// Lines are accepted in order; by default the response is sent after a
// synchronous flush, so every accepted event is applied (and, on a
// durable session, WAL-appended — under fsync=per-batch, fsynced) by the
// time the client sees it. With ?sync=false the request is
// fire-and-forget: it returns 202 once every line is enqueued, skipping
// the flush, and per-event apply errors surface through GET /stats
// (ingest.applyErrorCount / ingest.lastApplyError) instead of the
// response.
//
// The body is read in large chunks (the scanner buffers up to
// MaxIngestLine per line and returns zero-copy slices) and decoded into a
// pooled event slab handed to the Ingestor as whole batches — see
// ingestSlabbed, the one decode loop.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ing, err := s.ingestor()
	if err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	sync := true
	switch r.URL.Query().Get("sync") {
	case "false", "0":
		sync = false
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), MaxIngestLine)
	s.ingestSlabbed(ing, w, sc, sync)
}

// ingestSlabbed decodes the body into a pooled slab handed to the Ingestor
// via SendEvents — one mutex acquisition per ingestSlabSize events instead
// of per line. Timestampless events go over as they are: the Ingestor
// stamps them at accept time, so a send that stops mid-slab — the
// MaxTimestampJump guard rejecting a far-future line — leaves the stamp of
// every later event untouched by the rejected line.
func (s *Server) ingestSlabbed(ing *eagr.Ingestor, w http.ResponseWriter, sc *bufio.Scanner, sync bool) {
	slab := slabPool.Get().(*ingestSlab)
	defer func() {
		slab.reset()
		slabPool.Put(slab)
	}()
	accepted := 0
	line := 0
	// flush hands the slab over whole; on a send failure it reports the
	// exact failing line (events before it were accepted and will apply).
	flush := func() (failMsg string, failCode int) {
		if len(slab.evs) == 0 {
			return "", 0
		}
		n, err := ing.SendEvents(slab.evs)
		writes := 0
		for _, ev := range slab.evs[:n] {
			if ev.Kind == graph.ContentWrite {
				// Count at accept time, so writes a failing request already
				// streamed in (and which DO apply) are not lost from the
				// counter — and structural/read events are not inflated into it.
				writes++
			}
		}
		if writes > 0 {
			s.writes.Add(int64(writes))
		}
		accepted += n
		if err != nil {
			return fmt.Sprintf("line %d: %v", slab.lines[n], err), statusFor(err)
		}
		slab.reset()
		return "", 0
	}
	for sc.Scan() {
		line++
		// sc.Bytes + Unmarshal: no per-line copies on the streaming hot
		// path (Unmarshal does not retain its input).
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := ParseIngestLine(raw)
		if err != nil {
			if msg, code := flush(); msg != "" {
				s.finishIngest(ing, w, sync, accepted, msg, code)
				return
			}
			s.finishIngest(ing, w, sync, accepted, fmt.Sprintf("line %d: %v", line, err), http.StatusBadRequest)
			return
		}
		slab.evs = append(slab.evs, ev)
		slab.lines = append(slab.lines, line)
		if len(slab.evs) >= ingestSlabSize {
			if msg, code := flush(); msg != "" {
				s.finishIngest(ing, w, sync, accepted, msg, code)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		if msg, code := flush(); msg != "" {
			s.finishIngest(ing, w, sync, accepted, msg, code)
			return
		}
		s.finishIngest(ing, w, sync, accepted, scanErrMessage(line, err), http.StatusBadRequest)
		return
	}
	if msg, code := flush(); msg != "" {
		s.finishIngest(ing, w, sync, accepted, msg, code)
		return
	}
	s.finishIngest(ing, w, sync, accepted, "", http.StatusOK)
}

// finishIngest writes the summary response. In sync mode it first flushes
// the Ingestor (so accepted events are applied and the watermark is
// current) and reports per-event apply errors (duplicate edges, dead
// nodes — the same ones the sequential mutators would return) in
// "applyErrors" without failing the request; wire/send errors fail it with
// code. In async mode (?sync=false) it skips the flush and answers 202:
// accepted events apply in the background and their errors surface
// through /stats.
func (s *Server) finishIngest(ing *eagr.Ingestor, w http.ResponseWriter, sync bool, accepted int, failure string, code int) {
	ack := IngestAck{Accepted: accepted, Async: !sync, Error: failure}
	if sync {
		// Session-scoped diagnostics, not a per-request ledger: on a shared
		// Ingestor these may include failures from events a concurrent
		// request streamed (see the package doc).
		if err := ing.Flush(); err != nil && !errors.Is(err, eagr.ErrIngestorClosed) {
			ack.ApplyErrors = err.Error()
		}
	} else if code == http.StatusOK {
		code = http.StatusAccepted
	}
	if wm, ok := ing.Watermark(); ok {
		ack.Watermark = &wm
	}
	WriteJSON(w, code, ack)
}
