package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	eagr "repro"
	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/server"
)

// HTTPShard is the Shard on the far side of internal/server's JSON API: an
// eagr-serve process started with -ingest-manual-expire over the same graph
// as its peers. It owns the wire format and the retry rule.
//
// Only idempotent requests are retried — reads, probes and Expire. Apply,
// Mutate, Register and a Member's Close get exactly one attempt: a retry
// after an applied-but-unacknowledged request would apply twice on one
// replica and desynchronize the fleet, so the failure goes to the caller,
// whose stream-level retry can reconcile.
type HTTPShard struct {
	base    string
	client  *http.Client
	retried atomic.Int64
}

// NewHTTPShard returns the shard served at base (e.g. http://127.0.0.1:8081).
func NewHTTPShard(base string) *HTTPShard {
	return &HTTPShard{base: strings.TrimSuffix(base, "/"), client: &http.Client{Timeout: 30 * time.Second}}
}

// Retried counts the requests that succeeded only after a retry.
func (s *HTTPShard) Retried() int64 { return s.retried.Load() }

// HTTPError is a failed shard request. Code is the status the shard
// answered with, 0 when no answer arrived. A 4xx is the shard's verdict;
// anything else matches ErrUnavailable.
type HTTPError struct {
	Code int
	msg  string
}

func (e *HTTPError) Error() string { return e.msg }

func (e *HTTPError) Is(target error) bool {
	return target == ErrUnavailable && (e.Code < 400 || e.Code >= 500)
}

// Idempotent requests get the first try plus three retries, with capped
// exponential backoff between them: 25, 50, 100 ms.
const (
	retryAttempts = 4
	retryBase     = 25 * time.Millisecond
)

// call sends one request and decodes a successful JSON answer into out (nil
// discards it). An idempotent call retries while the shard is unavailable;
// a verdict returns at once, since retrying cannot change it.
func (s *HTTPShard) call(idempotent bool, method, path string, body []byte, out any) error {
	delay := retryBase
	for attempt := 1; ; attempt++ {
		err := s.once(method, path, body, out)
		if err == nil {
			if attempt > 1 {
				s.retried.Add(1)
			}
			return nil
		}
		if !idempotent || attempt == retryAttempts || !errors.Is(err, ErrUnavailable) {
			return err
		}
		time.Sleep(delay)
		delay = min(2*delay, 8*retryBase)
	}
}

func (s *HTTPShard) once(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return &HTTPError{msg: err.Error()}
	}
	if path == "/ingest" {
		req.Header.Set("Content-Type", "application/x-ndjson")
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return &HTTPError{msg: err.Error()}
	}
	defer resp.Body.Close()
	fail := func(format string, args ...any) error {
		return &HTTPError{Code: resp.StatusCode, msg: s.base + path + ": " + fmt.Sprintf(format, args...)}
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxJSONBody))
	if resp.StatusCode >= 300 {
		return fail("%s: %s", resp.Status, bytes.TrimSpace(payload[:min(len(payload), 4096)]))
	}
	if err != nil {
		return fail("read: %v", err)
	}
	// 204s and other empty successes are legal (e.g. POST /edge): decode
	// only when the shard sent a body.
	if out != nil && len(bytes.TrimSpace(payload)) > 0 {
		if err := json.Unmarshal(payload, out); err != nil {
			return fail("decode: %v", err)
		}
	}
	return nil
}

// Get is an idempotent GET outside the Shard contract: /healthz, /stats.
func (s *HTTPShard) Get(path string, out any) error {
	return s.call(true, http.MethodGet, path, nil, out)
}

// Register carries the spec and, of opts, the two fields the wire has
// (Algorithm, Mode); the shard merges them over its own session defaults.
func (s *HTTPShard) Register(spec eagr.QuerySpec, opts ...eagr.Options) (Member, error) {
	req := server.QuerySpecReq{Aggregate: spec.Aggregate, WindowTuples: spec.WindowTuples,
		WindowTime: spec.WindowTime, Hops: spec.Hops, Continuous: spec.Continuous}
	if len(opts) > 0 {
		req.Algorithm, req.Mode = opts[0].Algorithm, opts[0].Mode
	}
	body, _ := json.Marshal(req) // a struct of strings and numbers cannot fail
	var out server.QueryResp
	if err := s.call(false, http.MethodPost, "/queries", body, &out); err != nil {
		return nil, err
	}
	return httpMember{s, out.ID}, nil
}

// Apply posts the slice to /ingest as NDJSON. Events are re-encoded rather
// than forwarded as received so the coordinator's stamp is explicit on the
// wire: every shard sees the same ts for a fanned-out structural event,
// whatever its local stream maximum says.
func (s *HTTPShard) Apply(events []eagr.Event) error {
	var body []byte
	for _, ev := range events {
		body = server.AppendIngestLine(body, ev)
	}
	var out server.IngestAck
	err := s.call(false, http.MethodPost, "/ingest", body, &out)
	if err == nil && out.Error != "" {
		err = &HTTPError{Code: http.StatusOK, msg: s.base + "/ingest: " + out.Error}
	}
	return err
}

func (s *HTTPShard) Mutate(ev eagr.Event) (graph.NodeID, error) {
	var out server.NodeResp
	var err error
	switch ev.Kind {
	case graph.EdgeAdd:
		body, _ := json.Marshal(server.EdgeReq{From: ev.Node, To: ev.Peer})
		err = s.call(false, http.MethodPost, "/edge", body, nil)
	case graph.EdgeRemove:
		err = s.call(false, http.MethodDelete, fmt.Sprintf("/edge?from=%d&to=%d", ev.Node, ev.Peer), nil, nil)
	case graph.NodeAdd:
		err = s.call(false, http.MethodPost, "/node", nil, &out)
	case graph.NodeRemove:
		err = s.call(false, http.MethodDelete, fmt.Sprintf("/node?node=%d", ev.Node), nil, nil)
	default:
		err = fmt.Errorf("shard: %s has no structural route", ev.Kind)
	}
	return out.Node, err
}

func (s *HTTPShard) Expire(ts int64) error {
	body, _ := json.Marshal(server.ExpireBody{TS: ts}) // one integer cannot fail
	return s.call(true, http.MethodPost, "/expire", body, nil)
}

// httpMember is a query registered on an HTTPShard, under the shard's id.
type httpMember struct {
	s  *HTTPShard
	id int
}

func (m httpMember) ID() int { return m.id }

func (m httpMember) get(what string, v graph.NodeID, out any) error {
	return m.s.Get("/queries/"+strconv.Itoa(m.id)+"/"+what+"?node="+strconv.Itoa(int(v)), out)
}

func (m httpMember) Read(v graph.NodeID) (eagr.Result, error) {
	var out server.ReadResp
	err := m.get("read", v, &out)
	return out.Result(), err
}

func (m httpMember) ReadWire(v graph.NodeID) (agg.WirePAO, error) {
	var out server.PAOResp
	err := m.get("pao", v, &out)
	return out.PAO, err
}

func (m httpMember) Close() error {
	return m.s.call(false, http.MethodDelete, "/queries/"+strconv.Itoa(m.id), nil, nil)
}
