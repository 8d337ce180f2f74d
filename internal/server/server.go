// Package server exposes a multi-query EAGr session over HTTP with a small
// JSON API, turning the library into a deployable continuous-query
// service. Queries are first-class resources:
//
//	POST   /queries          {"aggregate":"sum","windowTuples":3}   register a query
//	GET    /queries                                                 list registered queries
//	DELETE /queries/{id}                                            retire a query
//	GET    /queries/{id}/read?node=1                                evaluate the query at a node
//	GET    /queries/{id}/pao?node=1                                 un-finalized partial aggregate (wire form)
//	GET    /queries/{id}/watch?node=1&buffer=64                     SSE stream of continuous updates
//	GET    /queries/{id}/stats                                      per-query overlay statistics
//	GET    /queries/{id}/covered?node=1                             is the node's result push-maintained?
//
// GET /queries/{id}/pao returns the query's un-finalized partial aggregate
// at a node as an eagr.WirePAO JSON snapshot — the shard half of a
// cross-shard read: a router merges the per-shard PAOs (agg.MergeWires)
// and finalizes once, which is exact for every built-in aggregate except
// topk~ (see internal/shard).
//
// plus the shared graph/stream surface:
//
//	POST   /ingest       NDJSON event stream (see below)  streaming mixed ingest
//	POST   /edge         {"from":1,"to":2}                structural add
//	DELETE /edge?from=1&to=2                              structural delete
//	POST   /node         {}                               add a node
//	DELETE /node?node=1                                   remove a node and its edges
//	POST   /rebalance                                     adaptive re-decision (all queries)
//	POST   /expire       {"ts":90}                        advance time-based windows to ts
//	GET    /stats                                         session statistics
//
// POST /expire advances every query's time-based windows explicitly. It
// exists for deployments where the watermark authority is elsewhere — a
// router fronting several shard servers computes the fleet-wide minimum
// watermark and broadcasts it — and pairs with WithManualExpiry, which
// stops the shared Ingestor from expiring on its own local watermark.
//
// POST /ingest is the streaming front door: the body is newline-delimited
// JSON, one event per line, content and structural events interleaved in
// stream order —
//
//	{"kind":"write","node":1,"value":42,"ts":7}
//	{"kind":"edge-add","from":2,"to":1}
//	{"kind":"node-remove","node":9}
//
// (kind defaults to "write"; a zero/absent ts is stamped with the
// stream's current maximum timestamp, so stamps stay in the client's own
// time domain — streams that never send ts simply don't advance time;
// node-add events allocate ids the streaming response cannot return, so
// clients that must address a new node immediately should POST /node for
// the id first). The
// stream feeds the server's session Ingestor: events batch up, each batch
// applies on the request goroutine that filled it, structural runs
// coalesce into one overlay repair per query, and the Ingestor's low watermark expires
// time-based windows automatically. The response reports the accepted
// event count and the current watermark; GET /stats surfaces the
// watermark and queue depth continuously.
//
// By default /ingest responds after a synchronous flush: on a durable
// session every acknowledged event has reached the WAL (and, under
// fsync=per-batch, stable storage) before the client sees 200. POST
// /ingest?sync=false is the fire-and-forget variant: it answers 202 as
// soon as every line is enqueued, and per-event apply errors surface
// later through GET /stats (ingest.applyErrorCount / lastApplyError)
// instead of the response. When the session is durable, GET /stats also
// carries a "durability" section (WAL shape, checkpoint counters, last
// recovery summary).
//
// The watermark only ratchets forward, so one far-future ts would
// permanently expire every time-based window on the session. The server
// cannot guess the client's time scale; deployments exposing /ingest
// beyond trusted producers should construct the server with
// WithMaxTimestampJump (events too far ahead of the stream are rejected
// with 422) or validate timestamps upstream.
//
// A response's "applyErrors" field reports per-event apply failures
// (duplicate edges, dead nodes) drained from the SHARED session Ingestor
// since the last report: under concurrent /ingest requests they may
// belong to events another request streamed — treat them as session
// diagnostics, not a per-request ledger.
//
// /queries/{id}/watch streams Server-Sent Events: one `data: {"node":…,
// "valid":…,"scalar":…,"ts":…}` frame per pushed update, produced whenever
// a write reaches a watched reader's ego network. Without a node parameter
// the stream covers every node of the query. Buffers are bounded and
// drop-oldest, so a slow watcher never blocks ingestion.
//
// JSON request bodies (POST /queries, /expire, /edge) are capped at
// MaxJSONBody and refused with 413 beyond it; /ingest streams, bounded per
// line.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	eagr "repro"
	"repro/internal/graph"
)

// maxWatchBuffer bounds the per-watcher update buffer a client may request
// (the channel is preallocated; drop-oldest handles anything beyond it).
const maxWatchBuffer = 1 << 16

// maxWindowTuples / maxHops / maxQueries bound wire-supplied query
// parameters: tuple windows preallocate a ring per writer, hops drive a
// per-reader BFS, and every distinct configuration compiles (and pins) a
// full overlay — so unbounded values are a client-driven resource DoS.
const (
	maxWindowTuples = 1 << 20
	maxHops         = 16
	maxQueries      = 1024
)

// MaxIngestLine bounds one NDJSON event line on /ingest (the scanner
// buffers a line before decoding it).
const MaxIngestLine = 1 << 20

// MaxJSONBody bounds the single-document JSON request bodies (POST
// /queries, /expire, /edge), which are decoded whole.
const MaxJSONBody = 1 << 20

// Server wraps a multi-query session with HTTP handlers. A Server that
// ever serves POST /ingest owns a background Ingestor; call Close (e.g.
// after http.Server.Shutdown returns) to flush and release it. Servers
// that never see an /ingest request hold no background resources.
type Server struct {
	sess *eagr.Session
	mux  *http.ServeMux
	// ing is the session's streaming front door, shared by every /ingest
	// request: batches interleave at its queue in arrival order, and its
	// watermark drives window expiry for the whole session. It is created
	// lazily on the first /ingest (ingMu/ingClosed guard init vs Close),
	// so embedders that never stream don't leak its worker goroutines.
	ing       atomic.Pointer[eagr.Ingestor]
	ingMu     sync.Mutex
	ingClosed bool
	// maxTSJump, when positive, is passed through to the Ingestor as
	// IngestOptions.MaxTimestampJump (see WithMaxTimestampJump).
	maxTSJump int64
	// manualExpire disables the shared Ingestor's watermark-driven window
	// expiry (see WithManualExpiry); POST /expire is then the only clock.
	manualExpire bool

	writes  atomic.Int64
	reads   atomic.Int64
	watches atomic.Int64
	// Async-ingest diagnostics: fire-and-forget requests (/ingest?sync=
	// false) return before their events apply, so per-event apply errors
	// surface here (drained from the Ingestor at /stats time) instead of
	// in a response.
	ingErrCount atomic.Int64
	ingErrMu    sync.Mutex
	ingErrLast  string
	// ingTS is the maximum client-supplied /ingest timestamp: ts-less
	// events are stamped with it, so stamps live in the CLIENT's time
	// domain (logical ticks or wall time, whatever it sends) instead of a
	// server-chosen clock that would yank the watermark — and with it
	// every time-based window — into the wrong epoch.
	ingTS atomic.Int64

	// watchDone, when closed by CloseWatchers, terminates every open
	// /watch stream so http.Server.Shutdown can drain them.
	watchDone chan struct{}
	closeOnce sync.Once
}

// Option configures a Server at construction.
type Option func(*Server)

// WithMaxTimestampJump bounds how far ahead of the stream an /ingest
// event's explicit timestamp may run; events further in the future are
// rejected with 422 instead of ratcheting the watermark (see
// eagr.IngestOptions.MaxTimestampJump). Pick the bound in the CLIENTS'
// time unit (ticks, seconds, nanoseconds — whatever they send).
func WithMaxTimestampJump(jump int64) Option {
	return func(s *Server) { s.maxTSJump = jump }
}

// WithManualExpiry stops the shared /ingest Ingestor from expiring
// time-based windows on its own low watermark; windows then advance only
// through POST /expire (or the embedder calling Session.ExpireAll). Use it
// when the server is one shard of a routed fleet: each shard sees only its
// slice of the stream, so its local watermark may run ahead of shards that
// are merely caught up on a slower substream — the router owns the
// fleet-wide minimum and broadcasts it.
func WithManualExpiry() Option {
	return func(s *Server) { s.manualExpire = true }
}

// New returns a server for the session. Queries registered directly on the
// session (e.g. by the hosting process at startup) are served too.
func New(sess *eagr.Session, opts ...Option) *Server {
	s := &Server{sess: sess, mux: http.NewServeMux(), watchDone: make(chan struct{})}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /queries", s.handleRegister)
	s.mux.HandleFunc("GET /queries", s.handleListQueries)
	s.mux.HandleFunc("DELETE /queries/{id}", s.handleRetire)
	s.mux.HandleFunc("GET /queries/{id}/read", s.handleQueryRead)
	s.mux.HandleFunc("GET /queries/{id}/pao", s.handleQueryPAO)
	s.mux.HandleFunc("GET /queries/{id}/watch", s.handleWatch)
	s.mux.HandleFunc("GET /queries/{id}/stats", s.handleQueryStats)
	s.mux.HandleFunc("GET /queries/{id}/covered", s.handleQueryCovered)
	s.mux.HandleFunc("/edge", s.handleEdge)
	s.mux.HandleFunc("/node", s.handleNode)
	s.mux.HandleFunc("/rebalance", s.handleRebalance)
	s.mux.HandleFunc("POST /expire", s.handleExpire)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ReadHeaderTimeout is how long a client of eagr-serve or eagr-router may
// take to send its request headers.
const ReadHeaderTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server both binaries listen with. It
// bounds only the header read, so a client that opens a connection and
// trickles (or never finishes) its headers cannot hold a goroutine forever.
// ReadTimeout, WriteTimeout and IdleTimeout stay unset on purpose: they
// would cut /watch SSE streams, long synchronous /ingest bodies and
// keep-alive connections that are legitimately quiet.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// CloseWatchers ends every open /watch stream (idempotent). Wire it to
// http.Server.RegisterOnShutdown so a graceful Shutdown can drain
// long-lived SSE connections instead of waiting out its context.
func (s *Server) CloseWatchers() {
	s.closeOnce.Do(func() { close(s.watchDone) })
}

// Close releases the server's resources: open watch streams end and the
// session Ingestor (if /ingest ever ran) flushes its remaining events and
// stops (idempotent). The session itself stays open — it belongs to the
// caller.
func (s *Server) Close() {
	s.CloseWatchers()
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	s.ingClosed = true
	if ing := s.ing.Load(); ing != nil {
		_ = ing.Close()
	}
	// Push the WAL tail to stable storage (no-op on non-durable
	// sessions): events served through the sequential mutators don't pass
	// the Ingestor's own close-time sync.
	_ = s.sess.SyncWAL()
}

// ingestor returns the server's shared Ingestor, creating it on first use.
// Block policy: a full apply queue holds the /ingest request body instead
// of erroring, which is HTTP's natural backpressure. The clock follows the
// stream (see ingTS): a ts-less event is stamped "now in stream time",
// never with a server wall clock the client's timestamps may know nothing
// about.
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
		Backpressure:      eagr.BackpressureBlock,
		Clock:             eagr.ClockFunc(s.ingTS.Load),
		MaxTimestampJump:  s.maxTSJump,
		DisableAutoExpire: s.manualExpire,
	})
	if err != nil {
		return nil, err
	}
	s.ing.Store(ing)
	return ing, nil
}

type readResp struct {
	Node   graph.NodeID `json:"node"`
	Valid  bool         `json:"valid"`
	Scalar int64        `json:"scalar,omitempty"`
	List   []int64      `json:"list,omitempty"`
	TS     int64        `json:"ts,omitempty"`
}

type edgeReq struct {
	From graph.NodeID `json:"from"`
	To   graph.NodeID `json:"to"`
}

// QuerySpecReq is the body of POST /queries: eagr.QuerySpec plus the subset
// of Options that makes sense over the wire. The router decodes it and the
// HTTP shard client (internal/shard) encodes it.
type QuerySpecReq struct {
	Aggregate    string `json:"aggregate"`
	WindowTuples int    `json:"windowTuples"`
	WindowTime   int64  `json:"windowTime"`
	Hops         int    `json:"hops"`
	Continuous   bool   `json:"continuous"`
	Algorithm    string `json:"algorithm"`
	Mode         string `json:"mode"`
}

// Spec is the eagr.QuerySpec part of the request.
func (q QuerySpecReq) Spec() eagr.QuerySpec {
	return eagr.QuerySpec{Aggregate: q.Aggregate, WindowTuples: q.WindowTuples,
		WindowTime: q.WindowTime, Hops: q.Hops, Continuous: q.Continuous}
}

type queryResp struct {
	ID           int    `json:"id"`
	Aggregate    string `json:"aggregate"`
	WindowTuples int    `json:"windowTuples,omitempty"`
	WindowTime   int64  `json:"windowTime,omitempty"`
	Hops         int    `json:"hops,omitempty"`
	Continuous   bool   `json:"continuous,omitempty"`
	Shared       int    `json:"shared"`
	Family       int    `json:"family"`
	OwnReaders   int    `json:"ownReaders"`
	Partials     int    `json:"partials"`
	Mode         string `json:"mode"`
}

func queryToResp(q *eagr.Query) queryResp {
	return queryToRespWith(q, q.Stats())
}

// queryToRespWith builds the wire form from precomputed stats, letting the
// list endpoint compute each shared overlay's stats once instead of once
// per query (overlay stat computation walks the whole overlay). The
// per-query sharing counters come from the cheap Sharing accessor, since
// queries merged into one family share st but not those counters.
func queryToRespWith(q *eagr.Query, st eagr.Stats) queryResp {
	spec := q.Spec()
	shared, family, ownReaders := q.Sharing()
	return queryResp{
		ID:           q.ID(),
		Aggregate:    spec.Aggregate,
		WindowTuples: spec.WindowTuples,
		WindowTime:   spec.WindowTime,
		Hops:         spec.Hops,
		Continuous:   spec.Continuous,
		Shared:       shared,
		Family:       family,
		OwnReaders:   ownReaders,
		Partials:     st.Partials,
		Mode:         st.Mode,
	}
}

// DecodeBody decodes a JSON request body of at most MaxJSONBody bytes into
// v; false means the error response (413 over the cap, 400 otherwise) was
// sent. Exported, like NodeParam, for the router's JSON routes.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxJSONBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", MaxJSONBody)
	} else {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
	}
	return false
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req QuerySpecReq
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.WindowTuples > maxWindowTuples {
		httpError(w, http.StatusUnprocessableEntity, "windowTuples %d exceeds limit %d", req.WindowTuples, maxWindowTuples)
		return
	}
	if req.Hops > maxHops {
		httpError(w, http.StatusUnprocessableEntity, "hops %d exceeds limit %d", req.Hops, maxHops)
		return
	}
	if req.WindowTuples < 0 || req.WindowTime < 0 || req.Hops < 0 {
		httpError(w, http.StatusUnprocessableEntity, "negative query parameters")
		return
	}
	if len(s.sess.Queries()) >= maxQueries {
		httpError(w, http.StatusTooManyRequests, "query limit %d reached; retire one first", maxQueries)
		return
	}
	// Merge wire-level overrides over the session defaults, so a query
	// registered over HTTP with the same effective configuration as a
	// locally registered one shares its compiled overlay.
	opts := s.sess.Defaults()
	if req.Algorithm != "" {
		opts.Algorithm = req.Algorithm
	}
	if req.Mode != "" {
		opts.Mode = req.Mode
	}
	q, err := s.sess.Register(req.Spec(), opts)
	if err != nil {
		httpError(w, statusFor(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(queryToResp(q))
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	list := s.sess.Queries()
	out := make([]queryResp, 0, len(list))
	// Queries sharing one compiled state report identical overlay stats;
	// compute them once per state. An overlay system hosts one aggregate and
	// window, so adding them to the key changes nothing there, and it is what
	// tells topology views apart: those compile no system (Internal is a
	// typed nil for all of them) and share exactly per (aggregate, window).
	type stateKey struct {
		sys        any
		aggregate  string
		windowTime int64
	}
	cache := map[stateKey]eagr.Stats{}
	for _, q := range list {
		spec := q.Spec()
		key := stateKey{q.Internal(), spec.Aggregate, spec.WindowTime}
		st, ok := cache[key]
		if !ok {
			st = q.Stats()
			cache[key] = st
		}
		out = append(out, queryToRespWith(q, st))
	}
	writeJSON(w, out)
}

// queryFor resolves the {id} path value; nil means the response was sent.
func (s *Server) queryFor(w http.ResponseWriter, r *http.Request) *eagr.Query {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return nil
	}
	q := s.sess.Query(id)
	if q == nil {
		httpError(w, http.StatusNotFound, "no query %d", id)
		return nil
	}
	return q
}

func (s *Server) handleRetire(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	if err := q.Close(); err != nil {
		httpError(w, statusFor(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQueryRead(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	node, err := NodeParam(r, "node")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := q.Read(node)
	if err != nil {
		httpError(w, statusFor(err), "%v", err)
		return
	}
	s.reads.Add(1)
	writeJSON(w, readResp{Node: node, Valid: res.Valid, Scalar: res.Scalar, List: res.List})
}

// paoResp carries a query's un-finalized partial aggregate at one node:
// the response of GET /queries/{id}/pao, a merge input for cross-shard
// reads. Aggregate names the PAO's family so a router can sanity-check it
// merges like with like.
type paoResp struct {
	Node      graph.NodeID `json:"node"`
	Aggregate string       `json:"aggregate"`
	PAO       eagr.WirePAO `json:"pao"`
}

func (s *Server) handleQueryPAO(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	node, err := NodeParam(r, "node")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wp, err := q.ReadWire(node)
	if err != nil {
		httpError(w, statusFor(err), "%v", err)
		return
	}
	s.reads.Add(1)
	name := q.Spec().Aggregate
	if name == "" {
		name = "sum"
	}
	writeJSON(w, paoResp{Node: node, Aggregate: name, PAO: wp})
}

// handleExpire advances every query's time-based windows to the given
// timestamp — the manual-expiry companion of WithManualExpiry (see the
// package doc). Harmless when auto-expiry is on too: expiry only ratchets
// forward. An advance the durability layer refused was not applied and
// answers with the error.
func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req struct {
		TS int64 `json:"ts"`
	}
	if !DecodeBody(w, r, &req) {
		return
	}
	if err := s.sess.ExpireAll(req.TS); err != nil {
		httpError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, map[string]int64{"ts": req.TS})
}

func (s *Server) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	st := q.Stats()
	writeJSON(w, map[string]any{
		"id":             q.ID(),
		"algorithm":      st.Algorithm,
		"mode":           st.Mode,
		"maintainable":   st.Maintainable,
		"recompiles":     st.Recompiles,
		"writers":        st.Writers,
		"readers":        st.Readers,
		"ownReaders":     st.OwnReaders,
		"partials":       st.Partials,
		"edges":          st.Edges,
		"negativeEdges":  st.NegativeEdges,
		"sharingIndex":   st.SharingIndex,
		"avgDepth":       st.AvgDepth,
		"shared":         st.Shared,
		"family":         st.Family,
		"subscribers":    st.Subscribers,
		"droppedUpdates": st.DroppedUpdates,
	})
}

// handleQueryCovered reports whether the query's result at a node is
// push-maintained — i.e. whether a /watch on that node will observe
// updates (see eagr.Query.Covered).
func (s *Server) handleQueryCovered(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	node, err := NodeParam(r, "node")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"node": node, "covered": q.Covered(node)})
}

// handleWatch streams continuous-query updates as Server-Sent Events until
// the client disconnects or the query is retired.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
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
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		nodes = append(nodes, node)
	}
	ch, cancel, err := q.Subscribe(buffer, nodes...)
	if err != nil {
		httpError(w, statusFor(err), "%v", err)
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
			if err := enc.Encode(readResp{Node: u.Node, Valid: u.Result.Valid,
				Scalar: u.Result.Scalar, List: u.Result.List, TS: u.TS}); err != nil {
				return
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// ingestEvent is the NDJSON wire form of one stream event. Edge events
// accept from/to (matching /edge); node-centric events use node. An
// absent/empty kind means a content write; an absent/zero ts is stamped
// by the Ingestor's clock.
type ingestEvent struct {
	Kind  string        `json:"kind"`
	Node  graph.NodeID  `json:"node"`
	Peer  graph.NodeID  `json:"peer"`
	From  *graph.NodeID `json:"from"`
	To    *graph.NodeID `json:"to"`
	Value int64         `json:"value"`
	TS    int64         `json:"ts"`
}

// ParseIngestLine decodes one trimmed, non-empty NDJSON line into a stream
// event: the /ingest wire grammar in one reusable (and fuzzable) place.
// The input is not retained.
func ParseIngestLine(raw []byte) (graph.Event, error) {
	var req ingestEvent
	if err := json.Unmarshal(raw, &req); err != nil {
		return graph.Event{}, fmt.Errorf("bad JSON: %v", err)
	}
	kind, err := graph.ParseEventKind(req.Kind)
	if err != nil {
		return graph.Event{}, err
	}
	ev := graph.Event{Kind: kind, Node: req.Node, Peer: req.Peer, Value: req.Value, TS: req.TS}
	if kind == graph.EdgeAdd || kind == graph.EdgeRemove {
		if req.From != nil {
			ev.Node = *req.From
		}
		if req.To != nil {
			ev.Peer = *req.To
		}
	}
	return ev, nil
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
		httpError(w, statusForIngest(err), "%v", err)
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
// of per line.
//
// Stream time advances on ACCEPTED events only. Timestampless events are
// stamped at parse from a request-local running stream time (seeded from
// s.ingTS at the start of each slab, raised by the explicit timestamps the
// loop passes), and s.ingTS itself moves only after SendEvents returns, by
// the timestamps of the events it accepted. A send that stops mid-slab —
// the MaxTimestampJump guard rejecting a far-future line — therefore leaves
// s.ingTS, the stamp reference of every later request, untouched by the
// rejected line and by everything after it.
func (s *Server) ingestSlabbed(ing *eagr.Ingestor, w http.ResponseWriter, sc *bufio.Scanner, sync bool) {
	slab := slabPool.Get().(*ingestSlab)
	defer func() {
		slab.reset()
		slabPool.Put(slab)
	}()
	accepted := 0
	line := 0
	now := s.ingTS.Load()
	// flush hands the slab over whole; on a send failure it reports the
	// exact failing line (events before it were accepted and will apply).
	flush := func() (failMsg string, failCode int) {
		if len(slab.evs) == 0 {
			return "", 0
		}
		n, err := ing.SendEvents(slab.evs)
		writes := 0
		// A stamped event carries the seed or an explicit timestamp earlier
		// in the slab, so the max over evs[:n] is the max accepted explicit
		// timestamp (or no advance at all). s.ingTS starts at 0 and only
		// rises, so 0 is the neutral start.
		var maxTS int64
		for _, ev := range slab.evs[:n] {
			if ev.Kind == graph.ContentWrite {
				// Count at accept time, so writes a failing request already
				// streamed in (and which DO apply) are not lost from the
				// counter — and structural/read events are not inflated into it.
				writes++
			}
			maxTS = max(maxTS, ev.TS)
		}
		if writes > 0 {
			s.writes.Add(int64(writes))
		}
		for {
			cur := s.ingTS.Load()
			if maxTS <= cur || s.ingTS.CompareAndSwap(cur, maxTS) {
				break
			}
		}
		accepted += n
		if err != nil {
			return fmt.Sprintf("line %d: %v", slab.lines[n], err), statusForIngest(err)
		}
		slab.reset()
		now = s.ingTS.Load()
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
		if ev.TS == 0 {
			// A zero stream time stays zero and the Ingestor's clock (the
			// same s.ingTS) stamps it.
			ev.TS = now
		} else {
			now = max(now, ev.TS)
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
	var applyErrs string
	if sync {
		if err := ing.Flush(); err != nil && !errors.Is(err, eagr.ErrIngestorClosed) {
			applyErrs = err.Error()
		}
	} else if code == http.StatusOK {
		code = http.StatusAccepted
	}
	resp := map[string]any{"accepted": accepted}
	if !sync {
		resp["async"] = true
	}
	if wm, ok := ing.Watermark(); ok {
		resp["watermark"] = wm
	}
	if applyErrs != "" {
		// Session-scoped diagnostics, not a per-request ledger: on a
		// shared Ingestor these may include failures from events a
		// concurrent request streamed (see the package doc).
		resp["applyErrors"] = applyErrs
	}
	if failure != "" {
		resp["error"] = failure
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// statusForIngest maps Ingestor send errors onto HTTP statuses.
func statusForIngest(err error) int {
	switch {
	case errors.Is(err, eagr.ErrBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, eagr.ErrIngestorClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, eagr.ErrTimestampJump):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req edgeReq
		if !DecodeBody(w, r, &req) {
			return
		}
		if err := s.sess.AddEdge(req.From, req.To); err != nil {
			httpError(w, statusFor(err), "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		from, err1 := NodeParam(r, "from")
		to, err2 := NodeParam(r, "to")
		if err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "from and to required")
			return
		}
		if err := s.sess.RemoveEdge(from, to); err != nil {
			httpError(w, statusFor(err), "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, "POST or DELETE required")
	}
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		v, err := s.sess.AddNode()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, map[string]graph.NodeID{"node": v})
	case http.MethodDelete:
		v, err := NodeParam(r, "node")
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.sess.RemoveNode(v); err != nil {
			httpError(w, statusFor(err), "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, "POST or DELETE required")
	}
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	flips, err := s.sess.Rebalance()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]int{"flips": flips})
}

// handleHealthz is the liveness probe: a cheap 200 whenever the HTTP
// front-end can reach the session. The router's fan-out health checks
// (and anything else that needs "is this shard up?" without the cost of
// /stats) poll it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"ok":      true,
		"queries": len(s.sess.Queries()),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := s.sess.Stats()
	var ist eagr.IngestorStats
	if ing := s.ing.Load(); ing != nil {
		ist = ing.Stats()
		// Fold apply errors from fire-and-forget requests into the
		// server's accumulators (sync requests report theirs inline and
		// drain the same buffer at flush time, so nothing double-counts).
		if errs := ing.ApplyErrors(); len(errs) > 0 {
			s.ingErrCount.Add(int64(len(errs)))
			s.ingErrMu.Lock()
			s.ingErrLast = errs[len(errs)-1].Error()
			s.ingErrMu.Unlock()
		}
	}
	ingest := map[string]any{
		"sent":       ist.Sent,
		"applied":    ist.Applied,
		"batches":    ist.Batches,
		"rejected":   ist.Rejected,
		"queueDepth": ist.QueueDepth,
		"buffered":   ist.Buffered,
	}
	if ist.WatermarkValid {
		ingest["watermark"] = ist.Watermark
	}
	if n := s.ingErrCount.Load(); n > 0 {
		s.ingErrMu.Lock()
		last := s.ingErrLast
		s.ingErrMu.Unlock()
		ingest["applyErrorCount"] = n
		ingest["lastApplyError"] = last
	}
	resp := map[string]any{
		"queries":         st.Queries,
		"groups":          st.Groups,
		"mergedFamilies":  st.MergedFamilies,
		"mergedQueries":   st.MergedQueries,
		"familyOverflows": st.FamilyOverflows,
		"overlaysMined":   st.OverlaysMined,
		"overlaysCloned":  st.OverlaysCloned,
		"writers":         st.Writers,
		"readers":         st.Readers,
		"partials":        st.Partials,
		"edges":           st.Edges,
		"droppedUpdates":  st.DroppedUpdates,
		"servedWrites":    s.writes.Load(),
		"servedReads":     s.reads.Load(),
		"servedWatches":   s.watches.Load(),
		"topoViews":       st.TopoViews,
		"ingest":          ingest,
		// Adaptivity state is always surfaced: POST /rebalance and the
		// autotune controller both feed the same per-overlay telemetry.
		"adaptivity": map[string]any{
			"pushObserved":          st.Adaptivity.PushObserved,
			"pullObserved":          st.Adaptivity.PullObserved,
			"rebalances":            st.Adaptivity.Rebalances,
			"lastFlips":             st.Adaptivity.LastFlips,
			"lastRebalanceNano":     st.Adaptivity.LastRebalanceNano,
			"installs":              st.Adaptivity.Installs,
			"lastInstallHoldMicros": st.Adaptivity.LastInstallHoldMicros,
		},
	}
	if at := st.Autotune; at.Enabled || at.Ticks > 0 {
		resp["autotune"] = map[string]any{
			"enabled":       at.Enabled,
			"ticks":         at.Ticks,
			"flips":         at.Flips,
			"reoptimizes":   at.Reoptimizes,
			"lastTrigger":   at.LastTrigger,
			"estimatedCost": at.EstimatedCost,
			"planCost":      at.PlanCost,
		}
	}
	if dst := s.sess.DurabilityStats(); dst.Enabled {
		durability := map[string]any{
			"dir":               dst.Dir,
			"walSegments":       dst.WALSegments,
			"walBytes":          dst.WALBytes,
			"walLastLSN":        dst.WALLastLSN,
			"walAppends":        dst.WALAppends,
			"walSyncs":          dst.WALSyncs,
			"walFreePool":       dst.WALFreePool,
			"checkpoints":       dst.Checkpoints,
			"lastCheckpointLSN": dst.LastCheckpointLSN,
			"replayedBatches":   dst.Recovery.ReplayedBatches,
			"replayedEvents":    dst.Recovery.ReplayedEvents,
			"cleanShutdown":     dst.Recovery.CleanShutdown,
		}
		if dst.LastCheckpointError != "" {
			durability["lastCheckpointError"] = dst.LastCheckpointError
		}
		if dst.Recovery.WatermarkValid {
			durability["recoveredWatermark"] = dst.Recovery.Watermark
		}
		resp["durability"] = durability
	}
	writeJSON(w, resp)
}

// statusFor maps the façade's typed errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, eagr.ErrUnknownNode), errors.Is(err, graph.ErrNodeNotFound),
		errors.Is(err, graph.ErrEdgeNotFound):
		return http.StatusNotFound
	case errors.Is(err, graph.ErrEdgeExists), errors.Is(err, graph.ErrNodeExists):
		return http.StatusConflict
	case errors.Is(err, eagr.ErrQueryClosed):
		return http.StatusGone
	case errors.Is(err, eagr.ErrConflictingWindow), errors.Is(err, eagr.ErrIncompatibleMerge),
		errors.Is(err, eagr.ErrIncompatibleQuery):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// NodeParam parses a required node-id query parameter.
func NodeParam(r *http.Request, name string) (graph.NodeID, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing %q parameter", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %q parameter: %v", name, err)
	}
	return graph.NodeID(v), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
