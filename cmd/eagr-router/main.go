// Command eagr-router fronts a fleet of eagr-serve shard servers with one
// EAGr-shaped HTTP surface. It is the HTTP skin of internal/shard's
// Coordinator over HTTPShards: this file decodes requests, maps errors to
// statuses and reports /stats, reading and writing the body types
// internal/server declares; where an event goes, what time it carries,
// when windows expire, how reads merge, what is retried and what happens
// when replicas diverge are internal/shard's, and documented there.
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
//	POST   /ingest                NDJSON stream, routed
//	POST   /edge, DELETE /edge    structural fan-out
//	POST   /node, DELETE /node    structural fan-out
//	POST   /expire                broadcast to every shard
//	GET    /stats                 per-shard stats and health, router totals
//
// A shard's 4xx is relayed as the fleet's verdict and any other shard
// failure is a 502. Bodies over the limit get 413. Once a structural
// fan-out has applied on some shards and failed on others, reads answer
// 503 and /stats carries "diverged".
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
)

// maxIngestBody bounds one POST /ingest body: the router parses a request
// whole before routing any of it, so that a malformed line rejects the
// request with nothing applied.
const maxIngestBody = 32 << 20

type routerQuery struct {
	ID        int    `json:"id"`
	Aggregate string `json:"aggregate"`
	// Topo marks a topology-valued query: reads proxy one shard's exact
	// value instead of merging PAOs.
	Topo bool `json:"topo,omitempty"`
	// ShardIDs[i] is the query's id on shard i.
	ShardIDs []int `json:"shardIDs"`
}

func describe(q *shard.Query) routerQuery {
	return routerQuery{ID: q.ID(), Aggregate: q.Aggregate(), Topo: q.Topo(), ShardIDs: q.ShardIDs()}
}

type router struct {
	co     *shard.Coordinator
	shards []*shard.HTTPShard // the coordinator's shards, for /stats
	mux    *http.ServeMux

	writes atomic.Int64 // content events routed
	reads  atomic.Int64 // reads answered
}

func newRouter(bases []string) *router {
	rt := &router{mux: http.NewServeMux()}
	members := make([]shard.Shard, len(bases))
	for i, base := range bases {
		s := shard.NewHTTPShard(base)
		rt.shards = append(rt.shards, s)
		members[i] = s
	}
	// A nil clock stamps ts-less events with stream time: the router cannot
	// know its clients' time domain.
	rt.co = shard.NewCoordinator(members, nil)
	rt.mux.HandleFunc("POST /ingest", rt.handleIngest)
	rt.mux.HandleFunc("POST /queries", rt.handleRegister)
	rt.mux.HandleFunc("GET /queries", rt.handleList)
	rt.mux.HandleFunc("DELETE /queries/{id}", rt.handleRetire)
	rt.mux.HandleFunc("GET /queries/{id}/read", rt.handleQueryRead)
	rt.mux.HandleFunc("POST /edge", func(w http.ResponseWriter, r *http.Request) {
		var req server.EdgeReq
		if server.DecodeBody(w, r, &req) {
			rt.mutate(w, eagr.NewEdgeAdd(req.From, req.To, 0))
		}
	})
	rt.mux.HandleFunc("DELETE /edge", func(w http.ResponseWriter, r *http.Request) {
		from, err1 := server.NodeParam(r, "from")
		to, err2 := server.NodeParam(r, "to")
		if err1 != nil || err2 != nil {
			server.WriteError(w, http.StatusBadRequest, "from and to required")
			return
		}
		rt.mutate(w, eagr.NewEdgeRemove(from, to, 0))
	})
	rt.mux.HandleFunc("POST /node", func(w http.ResponseWriter, r *http.Request) {
		rt.mutate(w, eagr.NewNodeAdd(0))
	})
	rt.mux.HandleFunc("DELETE /node", func(w http.ResponseWriter, r *http.Request) {
		v, err := server.NodeParam(r, "node")
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rt.mutate(w, eagr.NewNodeRemove(v, 0))
	})
	rt.mux.HandleFunc("POST /expire", rt.handleExpire)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	return rt
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// fail answers a coordinator error. A diverged fleet is unavailable for
// reads; a shard's client error (including 410 Gone) is the fleet's verdict
// and relays as-is; everything else, transport failures included, is a bad
// gateway.
func fail(w http.ResponseWriter, err error) {
	code := http.StatusBadGateway
	var he *shard.HTTPError
	switch {
	case errors.Is(err, shard.ErrDiverged):
		code = http.StatusServiceUnavailable
	case errors.As(err, &he) && he.Code >= 400 && he.Code < 500:
		code = he.Code
	case errors.Is(err, eagr.ErrIncompatibleQuery):
		code = http.StatusUnprocessableEntity
	}
	server.WriteError(w, code, "%v", err)
}

func (rt *router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req server.QuerySpecReq
	if !server.DecodeBody(w, r, &req) {
		return
	}
	q, err := rt.co.Register(req.Spec(), eagr.Options{Algorithm: req.Algorithm, Mode: req.Mode})
	if err != nil {
		fail(w, err)
		return
	}
	server.WriteJSON(w, http.StatusCreated, describe(q))
}

func (rt *router) handleList(w http.ResponseWriter, r *http.Request) {
	qs := rt.co.Queries()
	sort.Slice(qs, func(i, j int) bool { return qs[i].ID() < qs[j].ID() })
	out := make([]routerQuery, len(qs))
	for i, q := range qs {
		out[i] = describe(q)
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// queryFor resolves the {id} path value; nil means the response was sent.
func (rt *router) queryFor(w http.ResponseWriter, r *http.Request) *shard.Query {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return nil
	}
	q := rt.co.Query(id)
	if q == nil {
		server.WriteError(w, http.StatusNotFound, "no query %d", id)
	}
	return q
}

func (rt *router) handleRetire(w http.ResponseWriter, r *http.Request) {
	q := rt.queryFor(w, r)
	if q == nil {
		return
	}
	if err := q.Close(); err != nil {
		// The query is gone from the router either way; name every shard
		// that may still hold its copy.
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (rt *router) handleQueryRead(w http.ResponseWriter, r *http.Request) {
	q := rt.queryFor(w, r)
	if q == nil {
		return
	}
	node, err := server.NodeParam(r, "node")
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := q.Read(node)
	if err != nil {
		fail(w, err)
		return
	}
	rt.reads.Add(1)
	server.WriteJSON(w, http.StatusOK, server.NewReadResp(node, res))
}

// handleIngest parses one NDJSON stream whole and hands it to the
// coordinator as one batch.
func (rt *router) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxIngestBody))
	sc.Buffer(make([]byte, 64<<10), server.MaxIngestLine)
	var events []eagr.Event
	var content int64
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := server.ParseIngestLine(raw)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "line %d: %v", line, err)
			return
		}
		if ev.Kind == graph.ContentWrite {
			content++
		}
		events = append(events, ev)
	}
	var tooBig *http.MaxBytesError
	if err := sc.Err(); errors.As(err, &tooBig) {
		server.WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", maxIngestBody)
		return
	} else if err != nil {
		server.WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	wm, err := rt.co.Apply(events)
	if err != nil {
		fail(w, err)
		return
	}
	rt.writes.Add(content)
	server.WriteJSON(w, http.StatusOK, server.IngestAck{Accepted: len(events), Watermark: wm})
}

// mutate fans one structural event out and answers as a shard would: the
// allocated id for a node-add, 204 otherwise.
func (rt *router) mutate(w http.ResponseWriter, ev eagr.Event) {
	id, err := rt.co.Mutate(ev)
	switch {
	case err != nil:
		fail(w, err)
	case ev.Kind == graph.NodeAdd:
		server.WriteJSON(w, http.StatusOK, server.NodeResp{Node: id})
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (rt *router) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req server.ExpireBody
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if err := rt.co.Expire(req.TS); err != nil {
		fail(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, req)
}

// shardHealth is one shard's probe result in GET /stats: Healthy reports
// whether GET /healthz answered 200 (after the idempotent retry budget),
// Error carries the final failure when it did not.
type shardHealth struct {
	Shard   int    `json:"shard"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// routerStats is the body of the router's GET /stats.
type routerStats struct {
	Shards          int               `json:"shards"`
	ContentRouted   int64             `json:"contentRouted"`
	ReadsMerged     int64             `json:"readsMerged"`
	Queries         int               `json:"queries"`
	RetriedRequests int64             `json:"retriedRequests"`
	StreamTimestamp int64             `json:"streamTimestamp"`
	ShardHealth     []shardHealth     `json:"shardHealth"`
	ShardStats      []json.RawMessage `json:"shardStats"`
	// Diverged is the coordinator's recorded Divergence, once there is one.
	Diverged *divergence `json:"diverged,omitempty"`
}

// divergence is shard.Divergence on the wire.
type divergence struct {
	Shard int    `json:"shard"`
	Op    string `json:"op"`
	Error string `json:"error"`
}

// handleStats reports the router's own counters, every shard's /healthz
// verdict and every shard's full /stats body, keyed by shard index. Shards
// are probed concurrently, and a dead one fails its own entries only.
func (rt *router) handleStats(w http.ResponseWriter, r *http.Request) {
	health := make([]shardHealth, len(rt.shards))
	stats := make([]json.RawMessage, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Get("/stats", &stats[i]); err != nil {
				stats[i], _ = json.Marshal(server.ErrorResp{Error: err.Error()})
			}
			health[i] = shardHealth{Shard: i, Healthy: true}
			if err := s.Get("/healthz", nil); err != nil {
				health[i] = shardHealth{Shard: i, Error: err.Error()}
			}
		}()
	}
	wg.Wait()
	var retried int64
	for _, s := range rt.shards {
		retried += s.Retried()
	}
	resp := routerStats{
		Shards:          len(rt.shards),
		ContentRouted:   rt.writes.Load(),
		ReadsMerged:     rt.reads.Load(),
		Queries:         len(rt.co.Queries()),
		RetriedRequests: retried,
		StreamTimestamp: rt.co.StreamTime(),
		ShardHealth:     health,
		ShardStats:      stats,
	}
	if d := rt.co.Diverged(); d != nil {
		resp.Diverged = &divergence{Shard: d.Shard, Op: d.Op, Error: d.Err.Error()}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func main() {
	var (
		listen = flag.String("listen", ":8090", "listen address")
		shards = flag.String("shards", "", "comma-separated shard base URLs (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082), all serving the same graph with -ingest-manual-expire")
	)
	flag.Parse()
	var bases []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
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
