// Command eagr-router fronts a fleet of eagr-serve shard servers with one
// EAGr-shaped HTTP surface, scaling ingest beyond a single process the way
// internal/shard's in-process Cluster does across Sessions:
//
//   - content writes are hash-routed to their writer's owner shard
//     (internal/shard.Owner), so each shard holds the complete window
//     history of exactly the writers it owns;
//   - structural events (edge/node changes) fan out to EVERY shard in
//     stream order, keeping the shards identical replicas of the graph —
//     which is what makes per-shard reader PAOs a partition of the global
//     aggregation state;
//   - reads scatter-gather: the router fetches each shard's un-finalized
//     partial aggregate (GET /queries/{id}/pao), merges the PAOs
//     (agg.MergeWires) and finalizes once — exact for every built-in
//     aggregate except topk~ (bounded candidate lists are admission-order
//     dependent; see internal/shard). Topology-valued aggregates (density,
//     triangles, wedges, ego-betweenness) have no mergeable PAO and need
//     none: structure is replicated, so the router proxies GET /read from
//     any one shard and the answer is already fleet-exact — preferring the
//     first healthy shard, falling through on transport failure;
//   - transient per-shard failures on IDEMPOTENT requests (GETs, POST
//     /expire) retry with capped exponential backoff before the fan-out
//     fails; non-idempotent traffic (/ingest, /edge, /node, query
//     registration) never retries — a duplicate apply would corrupt the
//     replicas — and instead surfaces the error to the client, whose
//     stream-level retry can reconcile;
//   - GET /healthz on each shard backs the router's own health view,
//     surfaced under "shardHealth" in GET /stats;
//   - time is centralized: the router stamps ts-less events into the
//     stream's time domain before routing, and after every synchronous
//     /ingest computes the fleet-wide MINIMUM watermark and broadcasts it
//     via POST /expire. Run the shards with -ingest-manual-expire so a
//     shard that is merely ahead on its slice of the stream cannot expire
//     windows the slowest shard still needs.
//
// Usage:
//
//	eagr-serve  -listen 127.0.0.1:8081 -graph social -nodes 10000 -seed 7 -ingest-manual-expire &
//	eagr-serve  -listen 127.0.0.1:8082 -graph social -nodes 10000 -seed 7 -ingest-manual-expire &
//	eagr-router -listen :8080 -shards http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Every shard must be started over the SAME graph (same -graph/-nodes/
// -degree/-seed or the same -edgelist): the router replicates structure
// but does not bootstrap it.
//
// Routed surface:
//
//	POST   /queries               register on every shard, returns the router id
//	GET    /queries               list router-registered queries
//	DELETE /queries/{id}          retire on every shard
//	GET    /queries/{id}/read?node=1   scatter-gather PAO merge
//	POST   /ingest                NDJSON stream, routed (see above)
//	POST   /edge, DELETE /edge    structural fan-out
//	POST   /node, DELETE /node    structural fan-out
//	POST   /expire                broadcast to every shard
//	GET    /stats                 per-shard stats plus router totals
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/topo"
)

// maxIngestLine mirrors internal/server's per-line bound.
const maxIngestLine = 1 << 20

type routerQuery struct {
	ID        int    `json:"id"`
	Aggregate string `json:"aggregate"`
	// Topo marks a topology-valued query: reads proxy one shard's exact
	// value instead of merging PAOs.
	Topo bool `json:"topo,omitempty"`
	// ShardIDs[i] is the query's id on shard i — shards assign their own
	// ids, the router owns the mapping.
	ShardIDs []int `json:"shardIDs"`
}

type router struct {
	shards []string // shard base URLs, index = shard number
	client *http.Client
	mux    *http.ServeMux

	// mu serializes /ingest and structural fan-outs: routing decides a
	// per-shard order for interleaved events, and that order must be the
	// one the shards see (two racing fan-outs could otherwise apply
	// structural events in different orders on different shards).
	mu       sync.Mutex
	streamTS int64 // max explicit ingest timestamp seen (under mu)

	qmu     sync.Mutex
	queries map[int]*routerQuery
	nextID  int

	writes  int64 // content events routed (under mu)
	reads   int64 // scatter-gather reads served (under qmu)
	retries int64 // idempotent per-shard retries that went on to succeed (atomic-free: under qmu)

	// retryBase is the first backoff delay; tests shrink it. Growth is
	// 2x per attempt, capped at 8*retryBase, retryAttempts tries total.
	retryBase time.Duration
}

// retryAttempts bounds idempotent retries: first try + 3 retries.
const retryAttempts = 4

func newRouter(shards []string) *router {
	rt := &router{
		shards:    shards,
		client:    &http.Client{Timeout: 30 * time.Second},
		mux:       http.NewServeMux(),
		queries:   map[int]*routerQuery{},
		retryBase: 25 * time.Millisecond,
	}
	rt.mux.HandleFunc("POST /ingest", rt.handleIngest)
	rt.mux.HandleFunc("POST /queries", rt.handleRegister)
	rt.mux.HandleFunc("GET /queries", rt.handleList)
	rt.mux.HandleFunc("DELETE /queries/{id}", rt.handleRetire)
	rt.mux.HandleFunc("GET /queries/{id}/read", rt.handleQueryRead)
	rt.mux.HandleFunc("POST /edge", rt.fanoutJSON("/edge"))
	rt.mux.HandleFunc("DELETE /edge", rt.fanoutQuery("/edge"))
	rt.mux.HandleFunc("POST /node", rt.fanoutJSON("/node"))
	rt.mux.HandleFunc("DELETE /node", rt.fanoutQuery("/node"))
	rt.mux.HandleFunc("POST /expire", rt.fanoutJSON("/expire"))
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	return rt
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// post sends one JSON request to a shard and decodes the response into out
// (skipped when out is nil). Non-2xx responses become errors carrying the
// shard's status and body.
func (rt *router) do(method, shardURL, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, shardURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("%s%s: %s: %s", shardURL, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		// 204s and other empty successes are legal (e.g. POST /edge):
		// only decode when the shard actually sent a body.
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return resp.StatusCode, fmt.Errorf("%s%s: read: %v", shardURL, path, err)
		}
		if len(bytes.TrimSpace(payload)) > 0 {
			if err := json.Unmarshal(payload, out); err != nil {
				return resp.StatusCode, fmt.Errorf("%s%s: decode: %v", shardURL, path, err)
			}
		}
	}
	return resp.StatusCode, nil
}

// doRetry is rt.do for IDEMPOTENT requests only (GETs, POST /expire): on a
// transient failure — transport error (code 0) or a 5xx — it retries with
// capped exponential backoff (retryBase·2^k, capped at 8·retryBase, up to
// retryAttempts tries). 4xx responses are the shard's verdict, not a
// transient, and return immediately. Non-idempotent traffic (/ingest,
// structural mutations, query registration) must NEVER come through here:
// a retry after an applied-but-unacked request would double-apply on one
// replica and desynchronize the fleet.
func (rt *router) doRetry(method, shardURL, path string, body []byte, out any) (int, error) {
	var (
		code int
		err  error
	)
	delay := rt.retryBase
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			if delay *= 2; delay > 8*rt.retryBase {
				delay = 8 * rt.retryBase
			}
		}
		code, err = rt.do(method, shardURL, path, body, out)
		if err == nil {
			if attempt > 0 {
				rt.qmu.Lock()
				rt.retries++
				rt.qmu.Unlock()
			}
			return code, nil
		}
		if code >= 400 && code < 500 {
			return code, err // definitive rejection; retrying cannot help
		}
	}
	return code, err
}

// shardErr is one shard's fan-out failure: the shard index, the HTTP status
// it answered with (0 when the request never completed), and the error.
type shardErr struct {
	shard int
	code  int
	err   error
}

// fanout runs fn for every shard concurrently and waits for all of them.
// Per-shard ordering is preserved because every caller holds rt.mu across
// the whole fan-out: concurrent router requests never interleave their
// fan-outs, only the shards WITHIN one fan-out run in parallel — so each
// shard still observes the structural stream in router order, at the
// latency of the slowest shard instead of the sum of all shards. The
// lowest-indexed failure is returned, keeping error attribution
// deterministic under concurrency.
func (rt *router) fanout(fn func(i int, base string) (int, error)) *shardErr {
	errs := make([]*shardErr, len(rt.shards))
	var wg sync.WaitGroup
	for i, base := range rt.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			if code, err := fn(i, base); err != nil {
				errs[i] = &shardErr{shard: i, code: code, err: err}
			}
		}(i, base)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// status maps a shard failure onto the router's response status: client
// errors and Gone relay as-is, everything else (including transport
// failures, code 0) is a bad gateway.
func (e *shardErr) status() int {
	if e.code >= 400 && e.code < 500 || e.code == http.StatusGone {
		return e.code
	}
	return http.StatusBadGateway
}

// handleRegister registers the query on every shard (same body, so the
// shards compile identical overlay families) and records the id mapping.
// A partial failure retires the already-registered copies: shard query
// sets must stay identical or reads would merge mismatched views.
func (rt *router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var spec struct {
		Aggregate string `json:"aggregate"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	name := spec.Aggregate
	if name == "" {
		name = "sum"
	}
	isTopo := false
	if _, err := agg.Parse(name); err != nil {
		if !topo.IsTopo(name) {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		isTopo = true
	}
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	ids := make([]int, 0, len(rt.shards))
	for i, base := range rt.shards {
		var qr struct {
			ID int `json:"id"`
		}
		code, err := rt.do(http.MethodPost, base, "/queries", body, &qr)
		if err != nil {
			for j := range ids {
				_, _ = rt.do(http.MethodDelete, rt.shards[j], "/queries/"+strconv.Itoa(ids[j]), nil, nil)
			}
			status := http.StatusBadGateway
			if code >= 400 && code < 500 {
				status = code // the shard rejected the spec; relay its verdict
			}
			httpError(w, status, "shard %d: %v", i, err)
			return
		}
		ids = append(ids, qr.ID)
	}
	rq := &routerQuery{ID: rt.nextID, Aggregate: name, Topo: isTopo, ShardIDs: ids}
	rt.nextID++
	rt.queries[rq.ID] = rq
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(rq)
}

func (rt *router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	out := make([]*routerQuery, 0, len(rt.queries))
	for id := 0; id < rt.nextID; id++ {
		if rq, ok := rt.queries[id]; ok {
			out = append(out, rq)
		}
	}
	writeJSON(w, out)
}

func (rt *router) queryFor(w http.ResponseWriter, r *http.Request) *routerQuery {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return nil
	}
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	rq := rt.queries[id]
	if rq == nil {
		httpError(w, http.StatusNotFound, "no query %d", id)
		return nil
	}
	return rq
}

func (rt *router) handleRetire(w http.ResponseWriter, r *http.Request) {
	rq := rt.queryFor(w, r)
	if rq == nil {
		return
	}
	for i, base := range rt.shards {
		if _, err := rt.do(http.MethodDelete, base, "/queries/"+strconv.Itoa(rq.ShardIDs[i]), nil, nil); err != nil {
			httpError(w, http.StatusBadGateway, "shard %d: %v", i, err)
			return
		}
	}
	rt.qmu.Lock()
	delete(rt.queries, rq.ID)
	rt.qmu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleQueryRead is the cross-shard read: fetch every shard's un-finalized
// PAO for the node, merge, finalize once. Shards are structural replicas,
// so they agree on whether the node exists; the first shard's 404/410
// verdict is relayed as the fleet's.
func (rt *router) handleQueryRead(w http.ResponseWriter, r *http.Request) {
	rq := rt.queryFor(w, r)
	if rq == nil {
		return
	}
	node := r.URL.Query().Get("node")
	if node == "" {
		httpError(w, http.StatusBadRequest, "missing %q parameter", "node")
		return
	}
	if rq.Topo {
		rt.handleTopoRead(w, rq, node)
		return
	}
	a, err := agg.Parse(rq.Aggregate)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wires := make([]agg.WirePAO, 0, len(rt.shards))
	for i, base := range rt.shards {
		var pr struct {
			PAO agg.WirePAO `json:"pao"`
		}
		path := "/queries/" + strconv.Itoa(rq.ShardIDs[i]) + "/pao?node=" + node
		code, err := rt.doRetry(http.MethodGet, base, path, nil, &pr)
		if err != nil {
			status := http.StatusBadGateway
			if code >= 400 && code < 500 || code == http.StatusGone {
				status = code
			}
			httpError(w, status, "shard %d: %v", i, err)
			return
		}
		wires = append(wires, pr.PAO)
	}
	res, err := agg.MergeWires(a, wires)
	if err != nil {
		httpError(w, http.StatusBadGateway, "merge: %v", err)
		return
	}
	rt.qmu.Lock()
	rt.reads++
	rt.qmu.Unlock()
	nodeID, _ := strconv.Atoi(node)
	writeJSON(w, map[string]any{
		"node": nodeID, "valid": res.Valid, "scalar": res.Scalar, "list": res.List,
	})
}

// handleTopoRead answers a topology-valued read: structure is replicated,
// so any single shard's GET /read is already the exact fleet-wide value.
// The router prefers shard 0 and falls through to the next shard on a
// transient failure (each with its own retry budget); a 4xx/410 is a
// verdict every replica shares and is relayed immediately.
func (rt *router) handleTopoRead(w http.ResponseWriter, rq *routerQuery, node string) {
	var lastErr *shardErr
	for i, base := range rt.shards {
		var out json.RawMessage
		path := "/queries/" + strconv.Itoa(rq.ShardIDs[i]) + "/read?node=" + node
		code, err := rt.doRetry(http.MethodGet, base, path, nil, &out)
		if err == nil {
			rt.qmu.Lock()
			rt.reads++
			rt.qmu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(out)
			return
		}
		lastErr = &shardErr{shard: i, code: code, err: err}
		if code >= 400 && code < 500 || code == http.StatusGone {
			httpError(w, code, "shard %d: %v", i, err)
			return
		}
	}
	httpError(w, http.StatusBadGateway, "all shards failed; last: shard %d: %v", lastErr.shard, lastErr.err)
}

// encodeEvent renders one routed event back to canonical NDJSON. The
// router re-encodes rather than forwarding raw lines so its timestamp
// stamping is explicit on the wire: every shard sees the same ts for a
// fanned-out structural event, whatever its local stream max says.
func encodeEvent(ev graph.Event) []byte {
	b, _ := json.Marshal(map[string]any{
		"kind": ev.Kind.String(), "node": ev.Node, "peer": ev.Peer,
		"value": ev.Value, "ts": ev.TS,
	})
	return b
}

// handleIngest routes one NDJSON stream: content to owners, structure to
// everyone, then a synchronous per-shard flush and a fleet-wide minimum
// watermark broadcast (POST /expire) so time-based windows advance at the
// pace of the slowest shard.
func (rt *router) handleIngest(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	bufs := make([]bytes.Buffer, len(rt.shards))
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxIngestLine)
	accepted, line := 0, 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := server.ParseIngestLine(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, "line %d: %v", line, err)
			return
		}
		// Stamp here, not on the shards: each shard sees only a slice of
		// the stream, so its local "current maximum timestamp" lags the
		// router's and would stamp ts-less events into the past.
		if ev.TS == 0 {
			ev.TS = rt.streamTS
		} else if ev.TS > rt.streamTS {
			rt.streamTS = ev.TS
		}
		out := encodeEvent(ev)
		if ev.IsStructural() {
			for i := range bufs {
				bufs[i].Write(out)
				bufs[i].WriteByte('\n')
			}
		} else {
			i := shard.Owner(ev.Node, len(rt.shards))
			bufs[i].Write(out)
			bufs[i].WriteByte('\n')
			rt.writes++
		}
		accepted++
	}
	if err := sc.Err(); err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// Concurrent fan-out: every shard receives its substream in parallel
	// (rt.mu, held across the whole fan-out, is what keeps per-shard
	// ordering intact between requests), so a mixed batch costs the
	// slowest shard's apply, not the sum.
	wms := make([]*int64, len(rt.shards))
	if ferr := rt.fanout(func(i int, base string) (int, error) {
		if bufs[i].Len() == 0 {
			return 0, nil
		}
		resp, err := rt.client.Post(base+"/ingest", "application/x-ndjson", bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			return 0, err
		}
		var ack struct {
			Accepted  int    `json:"accepted"`
			Watermark *int64 `json:"watermark"`
			Error     string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			return resp.StatusCode, fmt.Errorf("decode: %v", err)
		}
		if resp.StatusCode >= 300 || ack.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s %s", resp.Status, ack.Error)
		}
		wms[i] = ack.Watermark
		return resp.StatusCode, nil
	}); ferr != nil {
		httpError(w, http.StatusBadGateway, "shard %d: %v", ferr.shard, ferr.err)
		return
	}
	var minWM int64
	haveWM := false
	for _, wm := range wms {
		if wm != nil && (!haveWM || *wm < minWM) {
			minWM, haveWM = *wm, true
		}
	}
	resp := map[string]any{"accepted": accepted}
	if haveWM {
		// The fleet clock: broadcast the minimum so no shard expires
		// windows ahead of the slowest substream. Expiry only ratchets
		// forward, so POST /expire is idempotent and safe to retry.
		body, _ := json.Marshal(map[string]int64{"ts": minWM})
		if ferr := rt.fanout(func(i int, base string) (int, error) {
			return rt.doRetry(http.MethodPost, base, "/expire", body, nil)
		}); ferr != nil {
			httpError(w, http.StatusBadGateway, "shard %d: expire: %v", ferr.shard, ferr.err)
			return
		}
		resp["watermark"] = minWM
	}
	writeJSON(w, resp)
}

// fanoutJSON broadcasts a JSON POST body to every shard and relays the
// first shard's response body (replicas answer identically — e.g. POST
// /node returns the same freshly allocated id everywhere).
func (rt *router) fanoutJSON(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			httpError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		rt.mu.Lock()
		defer rt.mu.Unlock()
		outs := make([]json.RawMessage, len(rt.shards))
		if ferr := rt.fanout(func(i int, base string) (int, error) {
			return rt.do(http.MethodPost, base, path, body, &outs[i])
		}); ferr != nil {
			httpError(w, ferr.status(), "shard %d: %v", ferr.shard, ferr.err)
			return
		}
		first := outs[0]
		if len(first) > 0 {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(first)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// fanoutQuery broadcasts a query-string request (DELETE /edge?from=&to=,
// DELETE /node?node=) to every shard.
func (rt *router) fanoutQuery(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if ferr := rt.fanout(func(i int, base string) (int, error) {
			return rt.do(r.Method, base, path+"?"+r.URL.RawQuery, nil, nil)
		}); ferr != nil {
			httpError(w, ferr.status(), "shard %d: %v", ferr.shard, ferr.err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// shardHealth is one shard's probe result in GET /stats: Healthy reports
// whether GET /healthz answered 200 (after the idempotent retry budget),
// Error carries the final failure when it did not.
type shardHealth struct {
	Shard   int    `json:"shard"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// probeHealth checks every shard's /healthz concurrently, each probe with
// its own retry budget, so a blip doesn't mark a shard down.
func (rt *router) probeHealth() []shardHealth {
	out := make([]shardHealth, len(rt.shards))
	_ = rt.fanout(func(i int, base string) (int, error) {
		out[i] = shardHealth{Shard: i, Healthy: true}
		if _, err := rt.doRetry(http.MethodGet, base, "/healthz", nil, nil); err != nil {
			out[i] = shardHealth{Shard: i, Healthy: false, Error: err.Error()}
		}
		return 0, nil
	})
	return out
}

// handleStats reports the router's own counters, every shard's /healthz
// verdict, and every shard's full /stats body, keyed by shard index.
func (rt *router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	writes, streamTS := rt.writes, rt.streamTS
	rt.mu.Unlock()
	rt.qmu.Lock()
	reads, queries, retries := rt.reads, len(rt.queries), rt.retries
	rt.qmu.Unlock()
	shardStats := make([]json.RawMessage, len(rt.shards))
	_ = rt.fanout(func(i int, base string) (int, error) {
		if _, err := rt.doRetry(http.MethodGet, base, "/stats", nil, &shardStats[i]); err != nil {
			shardStats[i], _ = json.Marshal(map[string]string{"error": err.Error()})
		}
		return 0, nil
	})
	writeJSON(w, map[string]any{
		"shards":          len(rt.shards),
		"contentRouted":   writes,
		"readsMerged":     reads,
		"queries":         queries,
		"retriedRequests": retries,
		"streamTimestamp": streamTS,
		"shardHealth":     rt.probeHealth(),
		"shardStats":      shardStats,
	})
}

func main() {
	var (
		listen = flag.String("listen", ":8090", "listen address")
		shards = flag.String("shards", "", "comma-separated shard base URLs (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082), all serving the same graph with -ingest-manual-expire")
	)
	flag.Parse()
	var bases []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(strings.TrimSuffix(s, "/")); s != "" {
			bases = append(bases, s)
		}
	}
	if len(bases) == 0 {
		log.Fatal("eagr-router: -shards is required")
	}
	rt := newRouter(bases)
	log.Printf("routing %d shards on %s", len(bases), *listen)
	log.Fatal(server.NewHTTPServer(*listen, rt).ListenAndServe())
}
