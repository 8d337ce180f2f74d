package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	eagr "repro"
	"repro/internal/graph"
)

// testSession builds a session over the 5-node fixture graph with one
// registered sum query.
func testSession(t *testing.T) (*eagr.Session, *eagr.Query) {
	t.Helper()
	g := eagr.NewGraph(5)
	// 1 -> 0, 2 -> 0, 3 -> 2
	for _, e := range [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := eagr.Open(g, eagr.Options{Algorithm: "iob"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Register(eagr.QuerySpec{Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	return sess, q
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	sess, _ := testSession(t)
	srv := New(sess)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close() // releases the /ingest Ingestor, if one was created
	})
	return ts
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func del(t *testing.T, url string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// ingest streams the given events (one NDJSON line each) through POST
// /ingest and returns the decoded summary. The default synchronous mode
// means every accepted event has applied when it returns.
func ingest(t *testing.T, base string, events ...map[string]any) map[string]any {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	return decode[map[string]any](t, resp)
}

// firstRead is the read route of the query testSession registers.
const firstRead = "/queries/1/read"

func TestWriteThenRead(t *testing.T) {
	ts := testServer(t)
	for node, val := range map[int]int64{1: 10, 2: 32} {
		ingest(t, ts.URL, map[string]any{"node": node, "value": val, "ts": 1})
	}
	resp, err := http.Get(ts.URL + firstRead + "?node=0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read status = %d", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["scalar"].(float64) != 42 {
		t.Fatalf("read = %v, want 42", got)
	}
}

func TestQueryLifecycleAPI(t *testing.T) {
	ts := testServer(t)
	// Register a second sum query: it must share the first one's overlay.
	resp := post(t, ts.URL+"/queries", map[string]any{"aggregate": "sum"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	created := decode[map[string]any](t, resp)
	id := int(created["id"].(float64))
	if created["shared"].(float64) != 2 {
		t.Fatalf("second sum query shared = %v, want 2", created["shared"])
	}
	// And a max query, which compiles its own overlay.
	resp = post(t, ts.URL+"/queries", map[string]any{"aggregate": "max", "windowTuples": 3})
	maxID := int(decode[map[string]any](t, resp)["id"].(float64))

	list := decode[[]map[string]any](t, mustGet(t, ts.URL+"/queries"))
	if len(list) != 3 {
		t.Fatalf("queries = %v, want 3", list)
	}

	// Per-query reads see per-query results.
	ingest(t, ts.URL, map[string]any{"node": 1, "value": 7, "ts": 1})
	got := decode[map[string]any](t, mustGet(t, fmt.Sprintf("%s/queries/%d/read?node=0", ts.URL, id)))
	if got["scalar"].(float64) != 7 {
		t.Fatalf("query read = %v, want 7", got)
	}
	st := decode[map[string]any](t, mustGet(t, fmt.Sprintf("%s/queries/%d/stats", ts.URL, maxID)))
	if st["mode"] != "dataflow" || st["shared"].(float64) != 1 {
		t.Fatalf("query stats = %v", st)
	}

	// Retire the second sum query; the first keeps answering.
	if resp := del(t, fmt.Sprintf("%s/queries/%d", ts.URL, id)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("retire status = %d", resp.StatusCode)
	}
	if resp := del(t, fmt.Sprintf("%s/queries/%d", ts.URL, id)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double retire status = %d", resp.StatusCode)
	}
	got = decode[map[string]any](t, mustGet(t, ts.URL+firstRead+"?node=0"))
	if got["scalar"].(float64) != 7 {
		t.Fatalf("read after retire = %v, want 7", got)
	}
}

func TestRegisterErrorsHTTP(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/queries", map[string]any{"aggregate": "nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown aggregate status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(t, ts.URL+"/queries", map[string]any{"aggregate": "sum", "windowTuples": 2, "windowTime": 5})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("conflicting window status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(t, ts.URL+"/queries", map[string]any{"aggregate": "max", "algorithm": "vnmn"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("illegal algorithm status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(t, ts.URL+"/queries", map[string]any{"aggregate": "sum", "mode": "greedy"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("greedy mode status = %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
	// Resource-bound rejections: oversized windows/hops and negatives.
	for _, body := range []map[string]any{
		{"aggregate": "sum", "windowTuples": 1 << 24},
		{"aggregate": "sum", "hops": 99},
		{"aggregate": "sum", "windowTuples": -1},
	} {
		resp = post(t, ts.URL+"/queries", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%v status = %d, want 422", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestWatchSSE subscribes to the continuous stream and checks a pushed
// frame arrives for a write in the watched ego network.
func TestWatchSSE(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/queries", map[string]any{"aggregate": "sum", "continuous": true})
	id := int(decode[map[string]any](t, resp)["id"].(float64))

	wresp, err := http.Get(fmt.Sprintf("%s/queries/%d/watch?node=0&buffer=8", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	frames := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(wresp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") {
				frames <- strings.TrimPrefix(line, "data: ")
				return
			}
		}
	}()
	ingest(t, ts.URL, map[string]any{"node": 1, "value": 9, "ts": 3})
	select {
	case frame := <-frames:
		var u map[string]any
		if err := json.Unmarshal([]byte(frame), &u); err != nil {
			t.Fatalf("bad frame %q: %v", frame, err)
		}
		if u["node"].(float64) != 0 || u["scalar"].(float64) != 9 || u["ts"].(float64) != 3 {
			t.Fatalf("frame = %v, want node 0 scalar 9 ts 3", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE frame within 5s")
	}
}

// TestCloseWatchersEndsStreams pins the graceful-shutdown contract: an
// open /watch stream terminates when CloseWatchers fires (the hook
// eagr-serve wires to http.Server.RegisterOnShutdown), instead of pinning
// Shutdown until its context expires.
func TestCloseWatchersEndsStreams(t *testing.T) {
	sess, _ := testSession(t)
	srv := New(sess)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp := post(t, ts.URL+"/queries", map[string]any{"aggregate": "sum", "continuous": true})
	id := int(decode[map[string]any](t, resp)["id"].(float64))
	wresp, err := http.Get(fmt.Sprintf("%s/queries/%d/watch", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, wresp.Body)
		done <- err
	}()
	srv.CloseWatchers()
	srv.CloseWatchers() // idempotent
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not end after CloseWatchers")
	}
}

// TestRegisterInheritsSessionDefaults pins that wire-registered queries
// merge over the session defaults, so they share overlays with queries
// registered by the hosting process.
func TestRegisterInheritsSessionDefaults(t *testing.T) {
	ts := testServer(t) // session default Algorithm "iob", one sum query
	resp := post(t, ts.URL+"/queries", map[string]any{"aggregate": "sum"})
	created := decode[map[string]any](t, resp)
	if created["shared"].(float64) != 2 {
		t.Fatalf("HTTP-registered twin query shared = %v, want 2 (defaults must merge)", created["shared"])
	}
	st := decode[map[string]any](t, mustGet(t, ts.URL+"/stats"))
	if st["groups"].(float64) != 1 {
		t.Fatalf("groups = %v, want 1", st["groups"])
	}
}

func TestWriteBatchThenRead(t *testing.T) {
	ts := testServer(t)
	out := ingest(t, ts.URL,
		map[string]any{"node": 1, "value": 10, "ts": 1},
		map[string]any{"node": 2, "value": 32, "ts": 2},
	)
	if out["accepted"].(float64) != 2 {
		t.Fatalf("accepted = %v, want 2", out)
	}
	got := decode[map[string]any](t, mustGet(t, ts.URL+firstRead+"?node=0"))
	if got["scalar"].(float64) != 42 {
		t.Fatalf("read after batch = %v, want 42", got)
	}
}

func TestReadErrors(t *testing.T) {
	ts := testServer(t)
	resp, _ := http.Get(ts.URL + firstRead)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing node: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + firstRead + "?node=banana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad node: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + firstRead + "?node=99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestStructuralEdgeAPI(t *testing.T) {
	ts := testServer(t)
	// Write on 3, then give reader 0 the new input 3.
	ingest(t, ts.URL, map[string]any{"node": 3, "value": 5, "ts": 1})
	resp := post(t, ts.URL+"/edge", map[string]any{"from": 3, "to": 0})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("edge add status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	got := decode[map[string]any](t, mustGet(t, ts.URL+firstRead+"?node=0"))
	if got["scalar"].(float64) != 5 {
		t.Fatalf("read after edge add = %v, want 5", got)
	}
	// Duplicate edge conflicts.
	resp = post(t, ts.URL+"/edge", map[string]any{"from": 3, "to": 0})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate edge status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Delete it again.
	if dresp := del(t, ts.URL+"/edge?from=3&to=0"); dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("edge delete status = %d", dresp.StatusCode)
	}
	got = decode[map[string]any](t, mustGet(t, ts.URL+firstRead+"?node=0"))
	if got["valid"].(bool) {
		t.Fatalf("read after delete = %v, want invalid (no written inputs)", got)
	}
}

func TestNodeLifecycleAPI(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/node", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node add status = %d", resp.StatusCode)
	}
	created := decode[map[string]graph.NodeID](t, resp)
	id := created["node"]
	if id != 5 {
		t.Fatalf("new node = %d, want 5", id)
	}
	if dresp := del(t, fmt.Sprintf("%s/node?node=%d", ts.URL, id)); dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("node delete status = %d", dresp.StatusCode)
	}
	// Deleting it again is a typed unknown-node error -> 404.
	if dresp := del(t, fmt.Sprintf("%s/node?node=%d", ts.URL, id)); dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("double node delete status = %d", dresp.StatusCode)
	}
}

func TestStatsAndRebalance(t *testing.T) {
	ts := testServer(t)
	st := decode[map[string]any](t, mustGet(t, ts.URL+"/stats"))
	if st["queries"].(float64) != 1 || st["groups"].(float64) != 1 {
		t.Fatalf("stats = %v", st)
	}
	if st["readers"].(float64) != 5 {
		t.Fatalf("readers = %v, want 5", st["readers"])
	}
	rresp := post(t, ts.URL+"/rebalance", nil)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance status = %d", rresp.StatusCode)
	}
	out := decode[map[string]int](t, rresp)
	if _, ok := out["flips"]; !ok {
		t.Fatalf("rebalance response = %v", out)
	}
}

func TestMethodChecks(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodGet, "/rebalance"},
		{http.MethodPost, "/stats"},
		{http.MethodPut, "/edge"},
		{http.MethodPut, "/node"},
		{http.MethodPut, "/queries"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(nil))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status = %d, want 405", c.method, c.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestBadJSON(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/edge", "/expire", "/queries"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte("{")))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s bad JSON status = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestJSONBodyLimit: the routes that decode a whole JSON document refuse a
// body over MaxJSONBody with 413 instead of buffering it, and still accept
// a normal one.
func TestJSONBodyLimit(t *testing.T) {
	ts := testServer(t)
	pad := strings.Repeat("x", MaxJSONBody)
	for _, c := range []struct {
		path, normal string
		want         int
	}{
		{"/queries", `{"aggregate":"count"`, http.StatusCreated},
		{"/expire", `{"ts":1`, http.StatusOK},
		{"/edge", `{"from":3,"to":0`, http.StatusNoContent},
	} {
		// Unknown fields are ignored, so the padding rides in one.
		for body, want := range map[string]int{
			c.normal + `}`:                     c.want,
			c.normal + `,"pad":"` + pad + `"}`: http.StatusRequestEntityTooLarge,
		} {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("POST %s with a %d-byte body: status = %d, want %d", c.path, len(body), resp.StatusCode, want)
			}
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status = %d", url, resp.StatusCode)
	}
	return resp
}

// TestCoveredEndpointAndFamilyStats exercises the merged-family surface:
// registering two sum queries with different hop depths merges them into
// one family, /queries reports family sharing per query, {id}/covered
// answers push coverage, and /stats carries the merged counters.
func TestCoveredEndpointAndFamilyStats(t *testing.T) {
	ts := testServer(t)
	q1 := decode[map[string]any](t, post(t, ts.URL+"/queries",
		map[string]any{"aggregate": "sum", "continuous": true}))
	q2 := decode[map[string]any](t, post(t, ts.URL+"/queries",
		map[string]any{"aggregate": "sum", "continuous": true, "hops": 2}))
	if q1["family"].(float64) < 1 || q2["family"].(float64) != 2 {
		t.Fatalf("family sizes = %v/%v, want second to join a 2-member family",
			q1["family"], q2["family"])
	}
	id2 := int(q2["id"].(float64))
	resp, err := http.Get(fmt.Sprintf("%s/queries/%d/covered?node=1", ts.URL, id2))
	if err != nil {
		t.Fatal(err)
	}
	cov := decode[map[string]any](t, resp)
	if cov["covered"] != true {
		t.Fatalf("continuous query node must be covered: %v", cov)
	}
	resp, err = http.Get(fmt.Sprintf("%s/queries/%d/covered", ts.URL, id2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("covered without node: status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[map[string]any](t, resp)
	if st["mergedFamilies"].(float64) < 1 || st["mergedQueries"].(float64) < 2 {
		t.Fatalf("stats missing merged counters: %v", st)
	}
	qst := decode[map[string]any](t, mustGet(t, fmt.Sprintf("%s/queries/%d/stats", ts.URL, id2)))
	for _, key := range []string{"id", "family", "ownReaders", "pullMemoHits", "pullMemoMisses"} {
		if _, ok := qst[key].(float64); !ok {
			t.Errorf("query stats %q = %v, want a number", key, qst[key])
		}
	}
}

// TestIngestEndpoint streams a mixed NDJSON batch — content writes plus a
// structural edge add — through POST /ingest and checks it all applied by
// response time (the handler flushes synchronously) and that /stats
// surfaces the watermark and queue counters.
func TestIngestEndpoint(t *testing.T) {
	ts := testServer(t)
	body := strings.Join([]string{
		`{"node":1,"value":10,"ts":5}`, // kind defaults to write
		`{"kind":"write","node":2,"value":30,"ts":6}`,
		`{"kind":"edge-add","from":3,"to":0}`, // 0's ego network gains 3
		`{"kind":"write","node":3,"value":2,"ts":7}`,
		``,
	}, "\n")
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["accepted"].(float64) != 4 {
		t.Fatalf("accepted = %v, want 4", got["accepted"])
	}
	// The ts-less edge-add must be stamped in the CLIENT's time domain
	// (the stream max, 6 at that point), never with a server wall clock
	// that would yank the watermark into nanosecond epoch.
	if wm, ok := got["watermark"].(float64); !ok || wm != 7 {
		t.Fatalf("watermark = %v, want exactly 7 (stream time, not wall clock)", got["watermark"])
	}
	// The edge add applied mid-stream, so node 3's write reached node 0.
	read, err := http.Get(ts.URL + firstRead + "?node=0")
	if err != nil {
		t.Fatal(err)
	}
	res := decode[map[string]any](t, read)
	if res["scalar"].(float64) != 42 {
		t.Fatalf("post-ingest read = %v, want 42 (10+30+2)", res)
	}
	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[map[string]any](t, stats)
	ing, ok := st["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing ingest block: %v", st)
	}
	if ing["applied"].(float64) != 4 || ing["sent"].(float64) != 4 {
		t.Fatalf("ingest stats = %v, want sent=applied=4", ing)
	}
	if _, ok := ing["watermark"]; !ok {
		t.Fatalf("ingest stats missing watermark: %v", ing)
	}
	if _, ok := st["familyOverflows"]; !ok {
		t.Fatalf("stats missing familyOverflows: %v", st)
	}
	if mined, ok := st["overlaysMined"].(float64); !ok || mined < 1 {
		t.Fatalf("stats overlaysMined = %v, want the registered query's mine counted", st["overlaysMined"])
	}
	if _, ok := st["overlaysCloned"].(float64); !ok {
		t.Fatalf("stats missing overlaysCloned: %v", st)
	}
}

// TestIngestEndpointErrors checks malformed lines fail with 400 (events
// before the bad line still apply) and unknown kinds are rejected.
func TestIngestEndpointErrors(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader("{\"node\":1,\"value\":7,\"ts\":1}\nnot json\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON line: status = %d, want 400", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["accepted"].(float64) != 1 {
		t.Fatalf("accepted = %v, want the line before the failure", got["accepted"])
	}
	read, err := http.Get(ts.URL + firstRead + "?node=0")
	if err != nil {
		t.Fatal(err)
	}
	res := decode[map[string]any](t, read)
	if res["scalar"].(float64) != 7 {
		t.Fatalf("accepted prefix not applied: %v", res)
	}
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"kind":"frobnicate","node":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status = %d, want 400", resp.StatusCode)
	}
	// Structural apply errors (duplicate edge) are reported, not fatal.
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"kind":"edge-add","from":1,"to":0}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate edge add: status = %d, want 200", resp.StatusCode)
	}
	got = decode[map[string]any](t, resp)
	if _, ok := got["applyErrors"]; !ok {
		t.Fatalf("duplicate edge add should report an apply error: %v", got)
	}
}

// TestIngestMaxTimestampJump checks the WithMaxTimestampJump server option:
// a far-future timestamp is rejected with 422 and the watermark survives.
func TestIngestMaxTimestampJump(t *testing.T) {
	sess, _ := testSession(t)
	srv := New(sess, WithMaxTimestampJump(1000))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader("{\"node\":1,\"value\":1,\"ts\":10}\n{\"node\":2,\"value\":2,\"ts\":9000000000000000000}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("far-future ts: status = %d, want 422", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["accepted"].(float64) != 1 {
		t.Fatalf("accepted = %v, want 1", got["accepted"])
	}
	if wm, ok := got["watermark"].(float64); !ok || wm != 10 {
		t.Fatalf("watermark = %v, want 10 (ratchet not poisoned)", got["watermark"])
	}
}

// durableServer builds a server over a durable session rooted at a temp
// directory, with spec registered as query 1; it returns the directory so
// tests can reopen it.
func durableServer(t *testing.T, spec eagr.QuerySpec) (*httptest.Server, *eagr.Session, string) {
	t.Helper()
	dir := t.TempDir()
	g := eagr.NewGraph(5)
	for _, e := range [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sess, _, err := eagr.OpenDurable(g, eagr.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(spec); err != nil {
		t.Fatal(err)
	}
	srv := New(sess)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		_ = sess.CloseDurability()
	})
	return ts, sess, dir
}

func TestIngestAsync(t *testing.T) {
	ts := testServer(t)
	body := strings.NewReader(
		`{"node":1,"value":5,"ts":1}` + "\n" + `{"node":2,"value":7,"ts":2}` + "\n")
	resp, err := http.Post(ts.URL+"/ingest?sync=false", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async ingest status = %d, want 202", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["accepted"] != float64(2) || got["async"] != true {
		t.Fatalf("async ingest response = %v", got)
	}
	// Fire-and-forget still applies: a synchronous flush via sync ingest
	// barriers the queue, after which the read must see both writes.
	resp = post(t, ts.URL+"/ingest", nil)
	resp.Body.Close()
	read := decode[map[string]any](t, mustGet(t, ts.URL+"/queries/1/read?node=0"))
	if read["scalar"] != float64(12) {
		t.Fatalf("read after async ingest = %v, want scalar 12", read)
	}
}

func TestIngestAsyncErrorsViaStats(t *testing.T) {
	ts := testServer(t)
	// A duplicate edge is a per-event apply failure; async mode must not
	// report it in the response.
	body := strings.NewReader(`{"kind":"edge-add","from":1,"to":0}` + "\n")
	resp, err := http.Post(ts.URL+"/ingest?sync=false", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	got := decode[map[string]any](t, resp)
	if resp.StatusCode != http.StatusAccepted || got["applyErrors"] != nil {
		t.Fatalf("async ingest = %d %v, want 202 with no inline applyErrors", resp.StatusCode, got)
	}
	// The error surfaces through /stats once the batch has applied; poll
	// (the flush interval bounds the wait).
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := decode[map[string]any](t, mustGet(t, ts.URL+"/stats"))
		ingest := stats["ingest"].(map[string]any)
		if n, _ := ingest["applyErrorCount"].(float64); n >= 1 {
			if s, _ := ingest["lastApplyError"].(string); !strings.Contains(s, "edge") {
				t.Fatalf("lastApplyError = %q, want an edge error", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("apply error never surfaced in /stats: %v", ingest)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatsDurabilitySection(t *testing.T) {
	ts, _, _ := durableServer(t, eagr.QuerySpec{Aggregate: "sum"})
	stats := decode[map[string]any](t, mustGet(t, ts.URL+"/stats"))
	dur, ok := stats["durability"].(map[string]any)
	if !ok {
		t.Fatalf("no durability section in /stats: %v", stats)
	}
	if dur["replayedBatches"] != float64(0) || dur["checkpoints"].(float64) < 1 {
		t.Fatalf("durability section = %v", dur)
	}
	// Every field of DurabilityStats and of its Recovery, flat in one object.
	for _, key := range []string{"enabled", "dir", "walSegments", "walBytes", "walLastLSN",
		"walAppends", "walSyncs", "checkpoints", "lastCheckpointLSN",
		"lastCheckpointWatermark", "checkpointSeq", "checkpointLSN", "recoveredQueries",
		"replayedBatches", "replayedEvents", "truncatedTail", "nextOrdinal",
		"recoveredWatermark", "recoveredWatermarkValid", "recoveryNanos"} {
		if _, ok := dur[key]; !ok {
			t.Errorf("durability section has no %q: %v", key, dur)
		}
	}
	// The non-durable server must NOT grow the section.
	ts2 := testServer(t)
	stats2 := decode[map[string]any](t, mustGet(t, ts2.URL+"/stats"))
	if _, ok := stats2["durability"]; ok {
		t.Fatal("non-durable session reported a durability section")
	}
}

// TestExpireReportsRefusedAdvance: POST /expire answers with the advance's
// fate. On a session whose durability layer is gone the advance is refused
// (it is WAL-first, like the events it otherwise rides with) and nothing
// expires, so the route says 503, as for a closed Ingestor.
func TestExpireReportsRefusedAdvance(t *testing.T) {
	ts, sess, _ := durableServer(t, eagr.QuerySpec{Aggregate: "sum"})
	if resp := post(t, ts.URL+"/expire", map[string]int64{"ts": 5}); resp.StatusCode != http.StatusOK {
		t.Fatalf("expire on a healthy session: status %d", resp.StatusCode)
	}
	if err := sess.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/expire", map[string]int64{"ts": 10})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expire refused by the durability layer: status %d, want 503", resp.StatusCode)
	}
}

func TestDurableIngestSurvivesCrash(t *testing.T) {
	ts, sess, dir := durableServer(t, eagr.QuerySpec{Aggregate: "sum"})
	// Sync ingest: the 200 means the events reached the WAL.
	body := strings.NewReader(
		`{"node":1,"value":5,"ts":1}` + "\n" + `{"node":2,"value":7,"ts":2}` + "\n")
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync ingest status = %d", resp.StatusCode)
	}
	ing := decode[map[string]any](t, mustGet(t, ts.URL+"/stats"))["ingest"].(map[string]any)
	if ing["applied"].(float64) != 2 {
		t.Fatalf("durable ingest block = %v, want applied 2", ing)
	}
	ts.Close()
	_ = sess.SimulateCrash()

	s2, rec, err := eagr.OpenDurable(nil, eagr.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.CloseDurability()
	if rec.NextOrdinal < 2 {
		t.Fatalf("recovered %d events, want the 2 acknowledged ones", rec.NextOrdinal)
	}
	r, err := s2.Queries()[0].Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalar != 12 {
		t.Fatalf("recovered sum at node 0 = %d, want 12", r.Scalar)
	}
}

// TestIngestStampsAtRecoveredStreamTime: after a durable restart, an
// /ingest event without a timestamp is stamped with the recovered stream
// time, not 0 — so it sits in the window beside the event before the
// restart and the next advance does not expire it. Node 0 then reads 12,
// as on a server that never restarted.
func TestIngestStampsAtRecoveredStreamTime(t *testing.T) {
	ts, sess, dir := durableServer(t, eagr.QuerySpec{Aggregate: "sum", WindowTime: 100})
	ingest(t, ts.URL, map[string]any{"node": 1, "value": 5, "ts": 1000})
	if err := sess.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	sess2, _, err := eagr.OpenDurable(nil, eagr.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(sess2)
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
		_ = sess2.CloseDurability()
	})
	ingest(t, ts2.URL, map[string]any{"node": 2, "value": 7})
	ingest(t, ts2.URL, map[string]any{"node": 3, "value": 1, "ts": 1001})
	read := decode[map[string]any](t, mustGet(t, ts2.URL+firstRead+"?node=0"))
	if read["scalar"] != float64(12) {
		t.Fatalf("read after restart = %v, want scalar 12 (the ts-less write stamped at 1000)", read)
	}
}

// TestIngestAsyncErrorCountPastBuffer: /stats counts every fire-and-forget
// batch whose apply failed, not just the 16 the Ingestor buffers for the
// next flush — and a sync request draining that buffer in between does not
// hide them. Each request's one duplicate edge-add waits for the flush
// ticker, so it is a batch of its own.
func TestIngestAsyncErrorCountPastBuffer(t *testing.T) {
	sess, _ := testSession(t)
	srv := New(sess)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	const requests = 20
	for i := range requests {
		body := strings.NewReader(`{"kind":"edge-add","from":1,"to":0}` + "\n")
		resp, err := http.Post(ts.URL+"/ingest?sync=false", "application/x-ndjson", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async ingest %d: status %d, want 202", i, resp.StatusCode)
		}
		deadline := time.Now().Add(5 * time.Second)
		for st := srv.ing.Load().Stats(); st.Applied < int64(i+1); st = srv.ing.Load().Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never applied: %+v", i, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// An empty sync request is a barrier: the last batch has settled once it
	// returns. Its flush hands the buffered errors back inline.
	post(t, ts.URL+"/ingest", nil).Body.Close()
	stats := decode[map[string]any](t, mustGet(t, ts.URL+"/stats"))
	ing := stats["ingest"].(map[string]any)
	batches, _ := ing["batches"].(float64)
	if n, _ := ing["applyErrorCount"].(float64); batches <= 16 || n != batches {
		t.Fatalf("ingest stats = %v, want applyErrorCount == batches > 16", ing)
	}
	if s, _ := ing["lastApplyError"].(string); !strings.Contains(s, "edge") {
		t.Fatalf("lastApplyError = %q, want an edge error", s)
	}
}

// TestIngestLineLength checks the NDJSON line-length contract: event lines
// well past bufio.Scanner's default 64KB token cap are accepted up to
// MaxIngestLine, and a line beyond the cap fails with a typed 400 that
// names the limit (not bufio's opaque "token too long") while the lines
// before it still apply.
func TestIngestLineLength(t *testing.T) {
	ts := testServer(t)
	// A ~128KB line — double the default Scanner token size. Unknown JSON
	// fields are ignored by the decoder, so padding rides in one.
	pad := strings.Repeat("x", 128<<10)
	big := `{"kind":"write","node":1,"value":5,"ts":1,"pad":"` + pad + `"}`
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(big+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("128KB line: status = %d, want 200", resp.StatusCode)
	}
	if got := decode[map[string]any](t, resp); got["accepted"].(float64) != 1 {
		t.Fatalf("128KB line: accepted = %v, want 1", got["accepted"])
	}
	// Over the cap: the line before it applies, the response is a 400
	// naming the limit and the failing line.
	over := `{"kind":"write","node":2,"value":9,"ts":2,"pad":"` +
		strings.Repeat("y", MaxIngestLine) + `"}`
	body := `{"kind":"write","node":3,"value":4,"ts":3}` + "\n" + over + "\n"
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap line: status = %d, want 400", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["accepted"].(float64) != 1 {
		t.Fatalf("over-cap line: accepted = %v, want the line before it", got["accepted"])
	}
	msg, _ := got["error"].(string)
	if !strings.Contains(msg, "line 2") || !strings.Contains(msg, "exceeds") ||
		!strings.Contains(msg, strconv.Itoa(MaxIngestLine)) {
		t.Fatalf("over-cap error = %q, want line number and byte limit", msg)
	}
}

// TestIngestJumpGuardMidSlab pins "stream time advances on ACCEPTED events
// only" for the one /ingest decode loop: a > 2-slab body (content, ts-less
// and structural lines mixed) whose line 700 — mid second slab — carries a
// far-future ts answers 422 with exactly the 699 lines before it accepted
// and applied, and a following ts-less write is stamped at the last
// ACCEPTED ts: nothing at or after the rejected line moved stream time.
func TestIngestJumpGuardMidSlab(t *testing.T) {
	sess, _ := testSession(t)
	// A time-windowed query tells a write stamped at stream time (in
	// window) from one stamped 0 (expired at the watermark).
	windowed, err := sess.Register(eagr.QuerySpec{Aggregate: "sum", WindowTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess, WithMaxTimestampJump(1000))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	const bad = 700
	var body strings.Builder
	last := map[int]int{} // node -> latest accepted value
	edge := false         // 4 -> 0 present among the accepted lines
	for i := 1; i <= 1200; i++ {
		switch {
		case i == bad:
			fmt.Fprintf(&body, `{"node":1,"value":%d,"ts":9000000000000000000}`+"\n", i)
		case i%50 == 0: // toggle edge 4 -> 0
			kind := "edge-add"
			if edge {
				kind = "edge-remove"
			}
			fmt.Fprintf(&body, `{"kind":%q,"from":4,"to":0,"ts":%d}`+"\n", kind, i)
			if i < bad {
				edge = !edge
			}
		case i%5 == 0: // ts-less: stamped from the request-local stream time
			fmt.Fprintf(&body, `{"node":4,"value":%d}`+"\n", i)
			if i < bad {
				last[4] = i
			}
		default:
			fmt.Fprintf(&body, `{"node":%d,"value":%d,"ts":%d}`+"\n", 1+i%2, i, i)
			if i < bad {
				last[1+i%2] = i
			}
		}
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("far-future ts mid-slab: status = %d, want 422", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["accepted"].(float64) != bad-1 {
		t.Fatalf("accepted = %v, want the %d lines before the rejected one", got["accepted"], bad-1)
	}
	if msg, _ := got["error"].(string); !strings.Contains(msg, fmt.Sprintf("line %d:", bad)) {
		t.Fatalf("error = %q, want it to name line %d", msg, bad)
	}
	if wm, ok := got["watermark"].(float64); !ok || wm != bad-1 {
		t.Fatalf("watermark = %v, want %d (the last accepted explicit ts)", got["watermark"], bad-1)
	}
	want := last[1] + last[2]
	if edge {
		want += last[4]
	}
	sum := decode[map[string]any](t, mustGet(t, ts.URL+firstRead+"?node=0"))
	if sum["scalar"].(float64) != float64(want) {
		t.Fatalf("read after partial accept = %v, want %d (exactly lines 1..%d applied)", sum["scalar"], want, bad-1)
	}

	// Node 2 aggregates node 3 alone, which the body never wrote.
	got = ingest(t, ts.URL, map[string]any{"node": 3, "value": 77})
	if got["accepted"].(float64) != 1 {
		t.Fatalf("ts-less write after the rejection: %v", got)
	}
	if wm, ok := got["watermark"].(float64); !ok || wm != bad-1 {
		t.Fatalf("watermark after a ts-less write = %v, want %d unchanged", got["watermark"], bad-1)
	}
	// Nudge the watermark so expiry runs: a write stamped 0 would go now.
	ingest(t, ts.URL, map[string]any{"node": 1, "value": 1, "ts": bad + 1})
	res := decode[map[string]any](t, mustGet(t, fmt.Sprintf("%s/queries/%d/read?node=2", ts.URL, windowed.ID())))
	if res["valid"] != true || res["scalar"].(float64) != 77 {
		t.Fatalf("windowed read = %v, want valid 77: the ts-less write must be stamped %d, inside the window", res, bad-1)
	}
}

// TestTopoOverHTTP drives a topology-valued query through every relevant
// endpoint: register, structural mutation via /edge, per-query read, the
// PAO endpoint's 422 (topo values have no mergeable wire form), the
// liveness probe, and the /stats topoViews gauge.
func TestTopoOverHTTP(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/queries", map[string]any{"aggregate": "triangles"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register triangles status = %d", resp.StatusCode)
	}
	id := int(decode[map[string]any](t, resp)["id"].(float64))

	// Fixture edges 1->0, 2->0, 3->2 hold no triangle; closing 1-2 forms
	// {0,1,2}, giving every corner ego one triangle.
	resp = post(t, ts.URL+"/edge", map[string]any{"from": 1, "to": 2})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("edge add status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	got := decode[map[string]any](t, mustGet(t, fmt.Sprintf("%s/queries/%d/read?node=0", ts.URL, id)))
	if got["scalar"].(float64) != 1 {
		t.Fatalf("triangles(0) over HTTP = %v, want 1", got)
	}

	// No wire PAO for topo: any shard's value is exact, so the router
	// reads /read instead of merging /pao — the endpoint must say 422.
	pao, err := http.Get(fmt.Sprintf("%s/queries/%d/pao?node=0", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	pao.Body.Close()
	if pao.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("topo PAO status = %d, want 422", pao.StatusCode)
	}

	hz := decode[map[string]any](t, mustGet(t, ts.URL+"/healthz"))
	if hz["ok"] != true {
		t.Fatalf("healthz = %v", hz)
	}
	st := decode[map[string]any](t, mustGet(t, ts.URL+"/stats"))
	if st["topoViews"].(float64) != 1 {
		t.Fatalf("stats topoViews = %v, want 1", st["topoViews"])
	}
}

// TestTopoWatchSSE: structural churn must stream topo updates through the
// ordinary SSE watch endpoint.
func TestTopoWatchSSE(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/queries", map[string]any{"aggregate": "density"})
	id := int(decode[map[string]any](t, resp)["id"].(float64))

	watch, err := http.Get(fmt.Sprintf("%s/queries/%d/watch?node=0", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()

	// Close 1-2: ego 0's neighborhood {1,2} becomes fully connected.
	resp = post(t, ts.URL+"/edge", map[string]any{"from": 1, "to": 2})
	resp.Body.Close()

	sc := bufio.NewScanner(watch.Body)
	deadline := time.After(5 * time.Second)
	lines := make(chan string, 8)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for {
		select {
		case <-deadline:
			t.Fatal("no SSE update for structural change on a topo query")
		case ln, ok := <-lines:
			if !ok {
				t.Fatal("watch stream closed early")
			}
			if !strings.HasPrefix(ln, "data: ") {
				continue
			}
			var u map[string]any
			if err := json.Unmarshal([]byte(strings.TrimPrefix(ln, "data: ")), &u); err != nil {
				t.Fatalf("bad SSE payload %q: %v", ln, err)
			}
			if u["node"].(float64) != 0 {
				continue
			}
			// density(0) = 1.0 in fixed point: one triangle over one pair.
			if u["scalar"].(float64) != 1000000 {
				t.Fatalf("SSE density update = %v, want scalar 1000000", u)
			}
			return
		}
	}
}
