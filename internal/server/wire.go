package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	eagr "repro"
	"repro/internal/graph"
)

// The HTTP wire format: each body the server, cmd/eagr-router and
// internal/shard's HTTPShard exchange, declared once.

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

// QueryResp describes one registered query: the answer of POST /queries
// and an element of GET /queries.
type QueryResp struct {
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

// ReadResp is a finalized answer at one node: the body of GET
// /queries/{id}/read (from a shard and from the router alike) and, with
// TS, one /watch frame. Scalar and List are left out when empty.
type ReadResp struct {
	Node   graph.NodeID `json:"node"`
	Valid  bool         `json:"valid"`
	Scalar int64        `json:"scalar,omitempty"`
	List   []int64      `json:"list,omitempty"`
	TS     int64        `json:"ts,omitempty"`
}

// NewReadResp is the read body of res at node.
func NewReadResp(node graph.NodeID, res eagr.Result) ReadResp {
	return ReadResp{Node: node, Valid: res.Valid, Scalar: res.Scalar, List: res.List}
}

// Result is the eagr.Result the body carries.
func (r ReadResp) Result() eagr.Result {
	return eagr.Result{Valid: r.Valid, Scalar: r.Scalar, List: r.List}
}

// PAOResp carries a query's un-finalized partial aggregate at one node:
// the response of GET /queries/{id}/pao, a merge input for cross-shard
// reads. Aggregate names the PAO's family so a router can sanity-check it
// merges like with like.
type PAOResp struct {
	Node      graph.NodeID `json:"node"`
	Aggregate string       `json:"aggregate"`
	PAO       eagr.WirePAO `json:"pao"`
}

type (
	// CoveredResp answers GET /queries/{id}/covered.
	CoveredResp struct {
		Node    graph.NodeID `json:"node"`
		Covered bool         `json:"covered"`
	}
	// QueryStatsResp is the body of GET /queries/{id}/stats.
	QueryStatsResp struct {
		ID int `json:"id"`
		eagr.Stats
	}
	// EdgeReq is the body of POST /edge.
	EdgeReq struct {
		From graph.NodeID `json:"from"`
		To   graph.NodeID `json:"to"`
	}
	// NodeResp answers POST /node with the allocated id.
	NodeResp struct {
		Node graph.NodeID `json:"node"`
	}
	// ExpireBody is the body of POST /expire and, echoed, its answer.
	ExpireBody struct {
		TS int64 `json:"ts"`
	}
	// RebalanceResp answers POST /rebalance.
	RebalanceResp struct {
		Flips int `json:"flips"`
	}
	// HealthResp answers GET /healthz.
	HealthResp struct {
		OK      bool `json:"ok"`
		Queries int  `json:"queries"`
	}
	// ErrorResp is the body of every error answer.
	ErrorResp struct {
		Error string `json:"error"`
	}
)

// IngestAck answers POST /ingest. Watermark is absent while there is none;
// ApplyErrors and Error only when there is something to report (see the
// package doc).
type IngestAck struct {
	Accepted    int    `json:"accepted"`
	Async       bool   `json:"async,omitempty"`
	Watermark   *int64 `json:"watermark,omitempty"`
	ApplyErrors string `json:"applyErrors,omitempty"`
	Error       string `json:"error,omitempty"`
}

// StatsResp is the body of GET /stats: the session's statistics plus the
// server's own counters. Ingest is the shared Ingestor's statistics, zero
// before the first /ingest; Durability is present only on a durable
// session.
type StatsResp struct {
	eagr.SessionStats
	ServedWrites  int64                `json:"servedWrites"`
	ServedReads   int64                `json:"servedReads"`
	ServedWatches int64                `json:"servedWatches"`
	Ingest        eagr.IngestorStats   `json:"ingest"`
	Durability    eagr.DurabilityStats `json:"durability,omitzero"`
}

// ingestEvent is the NDJSON wire form of one stream event. Edge events
// accept from/to (matching /edge); node-centric events use node. An
// absent/empty kind means a content write; an absent/zero ts is stamped
// by the Ingestor's clock.
type ingestEvent struct {
	Kind  string        `json:"kind"`
	Node  graph.NodeID  `json:"node"`
	Peer  graph.NodeID  `json:"peer"`
	From  *graph.NodeID `json:"from,omitempty"`
	To    *graph.NodeID `json:"to,omitempty"`
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

// AppendIngestLine appends ev to buf as one NDJSON line, newline included,
// that ParseIngestLine reads back as ev. Every field is explicit, the
// timestamp too, so a stamped event keeps its stamp on the far side.
func AppendIngestLine(buf []byte, ev graph.Event) []byte {
	// A struct of a string and integers cannot fail to encode.
	line, _ := json.Marshal(ingestEvent{Kind: ev.Kind.String(), Node: ev.Node, Peer: ev.Peer, Value: ev.Value, TS: ev.TS})
	return append(append(buf, line...), '\n')
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
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", MaxJSONBody)
	} else {
		WriteError(w, http.StatusBadRequest, "bad JSON: %v", err)
	}
	return false
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

// WriteJSON answers with status code and v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // the status is sent: a failure has no one left to tell
}

// WriteError answers with status code and an ErrorResp body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, ErrorResp{Error: fmt.Sprintf(format, args...)})
}
