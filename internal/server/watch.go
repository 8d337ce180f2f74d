package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/graph"
)

// maxWatchBuffer bounds the per-watcher update buffer a client may request
// (the channel is preallocated; drop-oldest handles anything beyond it).
const maxWatchBuffer = 1 << 16

// handleWatch streams continuous-query updates as Server-Sent Events until
// the client disconnects or the query is retired.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	buffer := 64
	if raw := r.URL.Query().Get("buffer"); raw != "" {
		if b, err := strconv.Atoi(raw); err == nil && b > 0 {
			// Cap the client-supplied capacity: the channel is allocated
			// up front, so an unbounded value is a one-request memory DoS.
			buffer = min(b, maxWatchBuffer)
		}
	}
	var nodes []graph.NodeID
	if raw := r.URL.Query().Get("node"); raw != "" {
		node, err := NodeParam(r, "node")
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		nodes = append(nodes, node)
	}
	ch, cancel, err := q.Subscribe(buffer, nodes...)
	if err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	defer cancel()
	s.watches.Add(1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.watchDone:
			// Server shutting down; end the stream so Shutdown can drain.
			return
		case u, open := <-ch:
			if !open {
				// Query retired under the watcher.
				return
			}
			if _, err := fmt.Fprint(w, "data: "); err != nil {
				return
			}
			frame := NewReadResp(u.Node, u.Result)
			frame.TS = u.TS
			if err := enc.Encode(frame); err != nil {
				return
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
