package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	eagr "repro"
	"repro/internal/graph"
)

// TestStatusMapping pins every typed façade/ingest/durability error to its
// HTTP status, including wrapped forms (handlers always wrap with
// context), so a refactor cannot silently turn a 404 into a 500.
func TestStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"unknown-node", eagr.ErrUnknownNode, http.StatusNotFound},
		{"node-not-found", graph.ErrNodeNotFound, http.StatusNotFound},
		{"edge-not-found", graph.ErrEdgeNotFound, http.StatusNotFound},
		{"edge-exists", graph.ErrEdgeExists, http.StatusConflict},
		{"node-exists", graph.ErrNodeExists, http.StatusConflict},
		{"query-closed", eagr.ErrQueryClosed, http.StatusGone},
		{"conflicting-window", eagr.ErrConflictingWindow, http.StatusUnprocessableEntity},
		{"incompatible-merge", eagr.ErrIncompatibleMerge, http.StatusUnprocessableEntity},
		{"incompatible-query", eagr.ErrIncompatibleQuery, http.StatusUnprocessableEntity},
		{"opaque", errors.New("boom"), http.StatusInternalServerError},
		{"ingest-closed", eagr.ErrIngestorClosed, http.StatusServiceUnavailable},
		{"ingest-timestamp-jump", eagr.ErrTimestampJump, http.StatusUnprocessableEntity},
		{"ingest-opaque", errors.New("boom"), http.StatusInternalServerError},
		{"durability-closed", eagr.ErrDurabilityClosed, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := statusFor(tc.err); got != tc.want {
				t.Fatalf("status(%v) = %d, want %d", tc.err, got, tc.want)
			}
			wrapped := fmt.Errorf("handler context: %w", tc.err)
			if got := statusFor(wrapped); got != tc.want {
				t.Fatalf("status(wrapped %v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestQueryPAOEndpoint reads a partial aggregate over the wire and checks
// it carries the un-finalized (sum, count) pair a router would merge.
func TestQueryPAOEndpoint(t *testing.T) {
	ts := testServer(t)
	ingest(t, ts.URL,
		map[string]any{"node": 1, "value": 10, "ts": 1},
		map[string]any{"node": 2, "value": 32, "ts": 2},
	)
	listResp, err := http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]QueryResp](t, listResp)
	if len(list) != 1 {
		t.Fatalf("queries = %+v, want exactly one", list)
	}
	id := list[0].ID
	resp, err := http.Get(fmt.Sprintf("%s/queries/%d/pao?node=0", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pao status = %d", resp.StatusCode)
	}
	got := decode[PAOResp](t, resp)
	if got.Aggregate != "sum" || got.Node != 0 {
		t.Fatalf("pao header = %+v, want sum at node 0", got)
	}
	if got.PAO.Sum != 42 || got.PAO.N != 2 {
		t.Fatalf("pao = %+v, want Sum=42 N=2", got.PAO)
	}
	// Unknown node and unknown query map through the shared status tables.
	for url, want := range map[string]int{
		fmt.Sprintf("%s/queries/%d/pao?node=99", ts.URL, id): http.StatusNotFound,
		ts.URL + "/queries/999/pao?node=0":                   http.StatusNotFound,
		fmt.Sprintf("%s/queries/%d/pao", ts.URL, id):         http.StatusBadRequest,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, want)
		}
	}
}

// TestManualExpiry covers the sharded deployment contract: with
// WithManualExpiry the Ingestor's own watermark must NOT expire windows —
// only POST /expire advances them.
func TestManualExpiry(t *testing.T) {
	sess, _ := testSession(t)
	q, err := sess.Register(eagr.QuerySpec{Aggregate: "count", WindowTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess, WithManualExpiry())
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	// Two different writers in node 0's ego network: per-writer window
	// pruning can't touch node 1's entry, only watermark-driven expiry
	// could — which manual mode defers to POST /expire.
	body := "{\"node\":1,\"value\":5,\"ts\":1}\n{\"node\":2,\"value\":6,\"ts\":100}\n"
	resp, err := http.Post(hs.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	// Auto-expiry would have dropped the ts=1 write (watermark 100,
	// window 10); manual mode keeps it until /expire says so.
	res, err := q.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar != 2 {
		t.Fatalf("pre-expire count = %+v, want 2 (manual expiry must not auto-advance)", res)
	}
	resp = post(t, hs.URL+"/expire", map[string]int64{"ts": 100})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expire status = %d", resp.StatusCode)
	}
	if res, err = q.Read(0); err != nil {
		t.Fatal(err)
	}
	if res.Scalar != 1 {
		t.Fatalf("post-expire count = %+v, want 1 (ts=1 outside window at 100)", res)
	}
}

// TestParseIngestLine pins the NDJSON grammar corner cases the fuzz target
// explores: kind defaulting, from/to aliasing on edge events, and rejection
// of unknown kinds and bad JSON.
func TestParseIngestLine(t *testing.T) {
	ev, err := ParseIngestLine([]byte(`{"node":3,"value":7,"ts":9}`))
	if err != nil || ev.Kind != graph.ContentWrite || ev.Node != 3 || ev.Value != 7 || ev.TS != 9 {
		t.Fatalf("default-kind line = %+v (%v)", ev, err)
	}
	ev, err = ParseIngestLine([]byte(`{"kind":"edge-add","from":2,"to":5}`))
	if err != nil || ev.Kind != graph.EdgeAdd || ev.Node != 2 || ev.Peer != 5 {
		t.Fatalf("edge-add from/to = %+v (%v)", ev, err)
	}
	ev, err = ParseIngestLine([]byte(`{"kind":"edge-remove","node":2,"peer":5}`))
	if err != nil || ev.Kind != graph.EdgeRemove || ev.Node != 2 || ev.Peer != 5 {
		t.Fatalf("edge-remove node/peer = %+v (%v)", ev, err)
	}
	if _, err = ParseIngestLine([]byte(`{"kind":"sideways"}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err = ParseIngestLine([]byte(`{"node":`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}
