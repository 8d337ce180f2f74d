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
//	GET    /healthz                                       liveness probe
//
// A request with a method its path does not serve gets 405. Every body is
// a named type in wire.go, shared with cmd/eagr-router and internal/shard's
// HTTPShard; GET /stats and GET /queries/{id}/stats encode the library's
// own stats structs (eagr.SessionStats, eagr.IngestorStats,
// eagr.DurabilityStats, eagr.Stats), so their json tags are the key names.
//
// POST /expire advances every query's time-based windows explicitly. It
// exists for deployments where the clock is elsewhere — a router fronting
// several shard servers closes time on every shard at its own stream time
// after each acknowledged ingest — and pairs with WithManualExpiry, which
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
// coalesce into one overlay repair per query, and each batch expires
// time-based windows up to the session's stream time (the watermark). The response reports the accepted
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
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	eagr "repro"
	"repro/internal/graph"
)

// maxWindowTuples / maxHops / maxQueries bound wire-supplied query
// parameters: tuple windows preallocate a ring per writer, hops drive a
// per-reader BFS, and every distinct configuration compiles (and pins) a
// full overlay — so unbounded values are a client-driven resource DoS.
const (
	maxWindowTuples = 1 << 20
	maxHops         = 16
	maxQueries      = 1024
)

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
// slice of the stream, so its local watermark is not the stream's time —
// the router closes time on every shard at its own stream time after each
// acknowledged ingest, so all shards share one horizon.
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
	s.mux.HandleFunc("POST /edge", s.handleAddEdge)
	s.mux.HandleFunc("DELETE /edge", s.handleRemoveEdge)
	s.mux.HandleFunc("POST /node", s.handleAddNode)
	s.mux.HandleFunc("DELETE /node", s.handleRemoveNode)
	s.mux.HandleFunc("POST /rebalance", s.handleRebalance)
	s.mux.HandleFunc("POST /expire", s.handleExpire)
	s.mux.HandleFunc("GET /stats", s.handleStats)
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

// queryToResp builds the wire form from precomputed stats, letting the
// list endpoint compute each shared overlay's stats once instead of once
// per query (overlay stat computation walks the whole overlay). The
// per-query sharing counters come from the cheap Sharing accessor, since
// queries merged into one family share st but not those counters.
func queryToResp(q *eagr.Query, st eagr.Stats) QueryResp {
	spec := q.Spec()
	shared, family, ownReaders := q.Sharing()
	return QueryResp{
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

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req QuerySpecReq
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.WindowTuples > maxWindowTuples {
		WriteError(w, http.StatusUnprocessableEntity, "windowTuples %d exceeds limit %d", req.WindowTuples, maxWindowTuples)
		return
	}
	if req.Hops > maxHops {
		WriteError(w, http.StatusUnprocessableEntity, "hops %d exceeds limit %d", req.Hops, maxHops)
		return
	}
	if req.WindowTuples < 0 || req.WindowTime < 0 || req.Hops < 0 {
		WriteError(w, http.StatusUnprocessableEntity, "negative query parameters")
		return
	}
	if len(s.sess.Queries()) >= maxQueries {
		WriteError(w, http.StatusTooManyRequests, "query limit %d reached; retire one first", maxQueries)
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
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, queryToResp(q, q.Stats()))
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	list := s.sess.Queries()
	out := make([]QueryResp, 0, len(list))
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
		out = append(out, queryToResp(q, st))
	}
	WriteJSON(w, http.StatusOK, out)
}

// queryFor resolves the {id} path value; nil means the response was sent.
func (s *Server) queryFor(w http.ResponseWriter, r *http.Request) *eagr.Query {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return nil
	}
	q := s.sess.Query(id)
	if q == nil {
		WriteError(w, http.StatusNotFound, "no query %d", id)
		return nil
	}
	return q
}

// queryAndNode resolves {id} and the node parameter; ok false means the
// response was sent.
func (s *Server) queryAndNode(w http.ResponseWriter, r *http.Request) (q *eagr.Query, node graph.NodeID, ok bool) {
	if q = s.queryFor(w, r); q == nil {
		return nil, 0, false
	}
	node, err := NodeParam(r, "node")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, 0, false
	}
	return q, node, true
}

func (s *Server) handleRetire(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	if err := q.Close(); err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQueryRead(w http.ResponseWriter, r *http.Request) {
	q, node, ok := s.queryAndNode(w, r)
	if !ok {
		return
	}
	res, err := q.Read(node)
	if err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	s.reads.Add(1)
	WriteJSON(w, http.StatusOK, NewReadResp(node, res))
}

func (s *Server) handleQueryPAO(w http.ResponseWriter, r *http.Request) {
	q, node, ok := s.queryAndNode(w, r)
	if !ok {
		return
	}
	wp, err := q.ReadWire(node)
	if err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	s.reads.Add(1)
	name := q.Spec().Aggregate
	if name == "" {
		name = "sum"
	}
	WriteJSON(w, http.StatusOK, PAOResp{Node: node, Aggregate: name, PAO: wp})
}

// handleQueryCovered reports whether the query's result at a node is
// push-maintained — i.e. whether a /watch on that node will observe
// updates (see eagr.Query.Covered).
func (s *Server) handleQueryCovered(w http.ResponseWriter, r *http.Request) {
	q, node, ok := s.queryAndNode(w, r)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, CoveredResp{Node: node, Covered: q.Covered(node)})
}

// handleExpire advances every query's time-based windows to the given
// timestamp — the manual-expiry companion of WithManualExpiry (see the
// package doc). Harmless when auto-expiry is on too: expiry only ratchets
// forward. An advance the durability layer refused was not applied and
// answers with the error.
func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req ExpireBody
	if !DecodeBody(w, r, &req) {
		return
	}
	if err := s.sess.ExpireAll(req.TS); err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, req)
}

func (s *Server) handleAddEdge(w http.ResponseWriter, r *http.Request) {
	var req EdgeReq
	if !DecodeBody(w, r, &req) {
		return
	}
	if err := s.sess.AddEdge(req.From, req.To); err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRemoveEdge(w http.ResponseWriter, r *http.Request) {
	from, err1 := NodeParam(r, "from")
	to, err2 := NodeParam(r, "to")
	if err1 != nil || err2 != nil {
		WriteError(w, http.StatusBadRequest, "from and to required")
		return
	}
	if err := s.sess.RemoveEdge(from, to); err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAddNode(w http.ResponseWriter, r *http.Request) {
	v, err := s.sess.AddNode()
	if err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, NodeResp{Node: v})
}

func (s *Server) handleRemoveNode(w http.ResponseWriter, r *http.Request) {
	v, err := NodeParam(r, "node")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.sess.RemoveNode(v); err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	flips, err := s.sess.Rebalance()
	if err != nil {
		WriteError(w, statusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, RebalanceResp{Flips: flips})
}

// handleHealthz is the liveness probe: a cheap 200 whenever the HTTP
// front-end can reach the session. The router's fan-out health checks
// (and anything else that needs "is this shard up?" without the cost of
// /stats) poll it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResp{OK: true, Queries: len(s.sess.Queries())})
}

// statusFor maps the façade's and the Ingestor's typed errors onto HTTP
// statuses.
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
		errors.Is(err, eagr.ErrIncompatibleQuery), errors.Is(err, eagr.ErrTimestampJump):
		return http.StatusUnprocessableEntity
	case errors.Is(err, eagr.ErrIngestorClosed), errors.Is(err, eagr.ErrDurabilityClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
