package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard/shardtest"
	"repro/internal/workload"
)

// fleetGraph builds one instance of the fixture graph every shard (and the
// oracle) starts from: 0-1, 1-2, 2-3 as directed edges.
func fleetGraph() *graph.Graph {
	g := eagr.NewGraph(6)
	for _, e := range [][2]eagr.NodeID{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return g
}

// newFleet spins up n in-process shard servers over identical graphs and a
// router fronting them, and returns the router's URL and the shard servers.
// mid, when non-nil, wraps each shard handler — the hook fault-injection
// tests use.
func newFleet(t *testing.T, n int, mid func(shard int, h http.Handler) http.Handler) (string, []*httptest.Server) {
	t.Helper()
	return routerOver(t, shardtest.HTTPShards(t, n, fleetGraph, eagr.Options{}, mid))
}

func routerOver(t *testing.T, shards []*httptest.Server) (string, []*httptest.Server) {
	bases := make([]string, len(shards))
	for i, s := range shards {
		bases[i] = s.URL
	}
	rts := httptest.NewServer(newRouter(bases))
	t.Cleanup(rts.Close)
	return rts.URL, shards
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// ingest posts NDJSON lines to the router and returns the status and the
// decoded answer.
func ingest(t *testing.T, url string, lines ...string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, decodeInto[map[string]any](t, resp)
}

// httpSystem is a router driven over its HTTP surface, as the oracle
// harness sees it; the httptest fleet and the real binaries share it.
type httpSystem struct {
	t   *testing.T
	url string
}

func (s httpSystem) Register(spec eagr.QuerySpec) (func(eagr.NodeID) (eagr.Result, error), error) {
	resp := postJSON(s.t, s.url+"/queries", server.QuerySpecReq{Aggregate: spec.Aggregate,
		WindowTuples: spec.WindowTuples, WindowTime: spec.WindowTime, Hops: spec.Hops})
	if resp.StatusCode != http.StatusCreated {
		resp.Body.Close()
		return nil, fmt.Errorf("register: status %d", resp.StatusCode)
	}
	id := decodeInto[routerQuery](s.t, resp).ID
	return func(v eagr.NodeID) (eagr.Result, error) {
		resp, err := http.Get(fmt.Sprintf("%s/queries/%d/read?node=%d", s.url, id, v))
		if err != nil {
			s.t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return eagr.Result{}, fmt.Errorf("read: status %d", resp.StatusCode)
		}
		return decodeInto[server.ReadResp](s.t, resp).Result(), nil
	}, nil
}

func (s httpSystem) Apply(events []eagr.Event) (*int64, error) {
	var body []byte
	for _, ev := range events {
		body = server.AppendIngestLine(body, ev)
	}
	resp, err := http.Post(s.url+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	status := resp.StatusCode
	ack := decodeInto[server.IngestAck](s.t, resp)
	if status != http.StatusOK || ack.Error != "" || ack.Accepted != len(events) {
		return nil, fmt.Errorf("ingest: status %d, accepted %d of %d, error %q", status, ack.Accepted, len(events), ack.Error)
	}
	return ack.Watermark, nil
}

// TestRouterMatchesOracle runs internal/shard's oracle through the router's
// own handlers: NDJSON in, JSON out, HTTP shards behind.
func TestRouterMatchesOracle(t *testing.T) {
	for _, shards := range []int{2, 3} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				g := func() *graph.Graph { return workload.SocialGraph(48, 4, seed) }
				url, _ := routerOver(t, shardtest.HTTPShards(t, shards, g, eagr.Options{Iterations: 6}, nil))
				shardtest.Run(t, g(), httpSystem{t, url}, shardtest.Specs, seed, 12, nil)
			})
		}
	}
}

// TestRouterTopoRegisterAndRead: a topology-valued query registers across
// the fleet, structural fan-out keeps the replicas aligned, and reads
// proxy one shard's exact value (no PAO merge).
func TestRouterTopoRegisterAndRead(t *testing.T) {
	url, _ := newFleet(t, 2, nil)

	resp := postJSON(t, url+"/queries", map[string]any{"aggregate": "triangles"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	reg := decodeInto[routerQuery](t, resp)
	if !reg.Topo || len(reg.ShardIDs) != 2 {
		t.Fatalf("registered query = %+v, want topo on 2 shards", reg)
	}

	// Close the 0-1-2 triangle through the router's structural fan-out.
	resp = postJSON(t, url+"/edge", map[string]any{"from": 2, "to": 0})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("edge status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	read, err := http.Get(fmt.Sprintf("%s/queries/%d/read?node=1", url, reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	if read.StatusCode != http.StatusOK {
		t.Fatalf("read status = %d", read.StatusCode)
	}
	got := decodeInto[map[string]any](t, read)
	if got["scalar"].(float64) != 1 {
		t.Fatalf("triangles(1) via router = %v, want 1", got)
	}

	// The same edge again is every replica's verdict, relayed — and not a
	// divergence, since no replica applied it.
	resp = postJSON(t, url+"/edge", map[string]any{"from": 2, "to": 0})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate edge status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	if st := decodeInto[map[string]any](t, mustGetOK(t, url+"/stats")); st["diverged"] != nil {
		t.Fatalf("a unanimous verdict recorded a divergence: %v", st["diverged"])
	}

	// POST /node answers the id every replica allocated.
	if node := decodeInto[map[string]any](t, postJSON(t, url+"/node", struct{}{})); node["node"].(float64) != 6 {
		t.Fatalf("POST /node = %v, want node 6", node)
	}

	// Unknown aggregates still 422 without touching any shard.
	resp = postJSON(t, url+"/queries", map[string]any{"aggregate": "nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bogus aggregate status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// flakyShard fails the first `fails` requests matching match with 502,
// then forwards to the real shard — a transient brown-out.
type flakyShard struct {
	next  http.Handler
	match func(*http.Request) bool
	fails int32
	seen  int32
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.match(r) {
		atomic.AddInt32(&f.seen, 1)
		if atomic.AddInt32(&f.fails, -1) >= 0 {
			http.Error(w, "injected brown-out", http.StatusBadGateway)
			return
		}
	}
	f.next.ServeHTTP(w, r)
}

// flakyOn makes shard `on` of a fleet flaky and returns the middleware and a
// pointer through which the test reads what the shard saw.
func flakyOn(on int, fails int32, match func(*http.Request) bool) (func(int, http.Handler) http.Handler, **flakyShard) {
	flaky := new(*flakyShard)
	return func(i int, h http.Handler) http.Handler {
		if i != on {
			return h
		}
		*flaky = &flakyShard{next: h, fails: fails, match: match}
		return *flaky
	}, flaky
}

// TestRouterRetriesIdempotentReads: a shard browning out on reads must be
// absorbed by the retry budget; the client sees one clean 200 and /stats
// counts the retry.
func TestRouterRetriesIdempotentReads(t *testing.T) {
	mid, flaky := flakyOn(0, 2, func(r *http.Request) bool {
		return r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/read")
	})
	url, _ := newFleet(t, 2, mid)
	reg := decodeInto[routerQuery](t, postJSON(t, url+"/queries", map[string]any{"aggregate": "density"}))

	read, err := http.Get(fmt.Sprintf("%s/queries/%d/read?node=1", url, reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	if read.StatusCode != http.StatusOK {
		t.Fatalf("read through brown-out status = %d, want 200", read.StatusCode)
	}
	read.Body.Close()
	if got := atomic.LoadInt32(&(*flaky).seen); got != 3 {
		t.Fatalf("shard saw %d read attempts, want 3 (2 failures + 1 success)", got)
	}
	st := decodeInto[map[string]any](t, mustGetOK(t, url+"/stats"))
	if st["retriedRequests"].(float64) < 1 {
		t.Fatalf("stats retriedRequests = %v, want >= 1", st["retriedRequests"])
	}
}

// TestRouterNeverRetriesIngest: non-idempotent traffic gets exactly one
// attempt — a failure surfaces instead of risking a double-apply. The
// batch was structural and shard 1 applied it, so the replicas now differ:
// reads answer 503 and /stats says why.
func TestRouterNeverRetriesIngest(t *testing.T) {
	mid, flaky := flakyOn(0, 1, func(r *http.Request) bool { return r.URL.Path == "/ingest" })
	url, _ := newFleet(t, 2, mid)
	reg := decodeInto[routerQuery](t, postJSON(t, url+"/queries", map[string]any{"aggregate": "sum"}))
	// Structural, so the substream fans out to BOTH shards — including the
	// flaky one — regardless of content ownership hashing.
	status, _ := ingest(t, url, `{"kind":"edge-add","from":3,"to":1,"ts":1}`)
	if status != http.StatusBadGateway {
		t.Fatalf("ingest through failing shard status = %d, want 502", status)
	}
	if got := atomic.LoadInt32(&(*flaky).seen); got != 1 {
		t.Fatalf("shard saw %d ingest attempts, want exactly 1 (no retry)", got)
	}

	read, err := http.Get(fmt.Sprintf("%s/queries/%d/read?node=1", url, reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	read.Body.Close()
	if read.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read on a diverged fleet status = %d, want 503", read.StatusCode)
	}
	st := decodeInto[map[string]any](t, mustGetOK(t, url+"/stats"))
	d, _ := st["diverged"].(map[string]any)
	if d == nil || d["shard"].(float64) != 0 || d["op"] != "apply" || d["error"] == "" {
		t.Fatalf("stats diverged = %v, want shard 0's failed apply", st["diverged"])
	}
}

// TestRouterRetireAttemptsEveryShard: a retire failing on shard 1 of 3 is a
// 502 that names it, but the query is gone from the router and retired on
// the two shards that answered — never listed yet unreadable.
func TestRouterRetireAttemptsEveryShard(t *testing.T) {
	mid, _ := flakyOn(1, 1, func(r *http.Request) bool { return r.Method == http.MethodDelete })
	url, shards := newFleet(t, 3, mid)
	reg := decodeInto[routerQuery](t, postJSON(t, url+"/queries", map[string]any{"aggregate": "sum"}))

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", url, reg.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg := decodeInto[map[string]string](t, resp)["error"]
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(msg, "shard 1") || strings.Contains(msg, "shard 0") {
		t.Fatalf("retire = %d %q, want a 502 naming shard 1 alone", resp.StatusCode, msg)
	}
	if left := decodeInto[[]routerQuery](t, mustGetOK(t, url+"/queries")); len(left) != 0 {
		t.Fatalf("router still lists %v", left)
	}
	for i, want := range []int{0, 1, 0} {
		if got := decodeInto[[]any](t, mustGetOK(t, shards[i].URL+"/queries")); len(got) != want {
			t.Fatalf("shard %d holds %d queries after the retire, want %d", i, len(got), want)
		}
	}
}

// TestRouterStreamTimeSurvivesRejectedRequest: stream time — the stamp of
// every ts-less event — moves only when a request is accepted. A far-future
// ts in a request rejected at a later malformed line must leave it alone,
// or every following ts-less write lands in the future and expires the
// windows behind it.
func TestRouterStreamTimeSurvivesRejectedRequest(t *testing.T) {
	url, _ := newFleet(t, 2, nil)
	reg := decodeInto[routerQuery](t, postJSON(t, url+"/queries", map[string]any{"aggregate": "sum", "windowTime": 10}))
	if status, ack := ingest(t, url, `{"node":0,"value":1,"ts":100}`); status != http.StatusOK {
		t.Fatalf("ingest = %d %v", status, ack)
	}
	status, ack := ingest(t, url, `{"node":0,"value":1,"ts":9000000000000000000}`, `{"node":`)
	if status != http.StatusBadRequest || !strings.Contains(ack["error"].(string), "line 2") {
		t.Fatalf("malformed line = %d %v, want a 400 naming line 2", status, ack)
	}
	if st := decodeInto[map[string]any](t, mustGetOK(t, url+"/stats")); st["streamTimestamp"].(float64) != 100 {
		t.Fatalf("streamTimestamp after the rejected request = %v, want 100", st["streamTimestamp"])
	}
	status, ack = ingest(t, url, `{"node":0,"value":7}`)
	if status != http.StatusOK || ack["watermark"].(float64) != 100 {
		t.Fatalf("ts-less write = %d %v, want watermark 100: it was stamped into the future", status, ack)
	}
	// Node 1 aggregates node 0: both writes sit inside the 10-tick window.
	got := decodeInto[map[string]any](t, mustGetOK(t, fmt.Sprintf("%s/queries/%d/read?node=1", url, reg.ID)))
	if got["valid"] != true || got["scalar"].(float64) != 8 {
		t.Fatalf("windowed sum = %v, want 8", got)
	}
}

// TestRouterBodyLimits: JSON routes refuse a body over server.MaxJSONBody
// and /ingest one over maxIngestBody with 413 instead of buffering it (or
// truncating it into a "bad JSON" 400), and still accept a normal one.
func TestRouterBodyLimits(t *testing.T) {
	url, _ := newFleet(t, 2, nil)
	pad := strings.Repeat("x", server.MaxJSONBody)
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
			resp, err := http.Post(url+c.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("POST %s with a %d-byte body: status = %d, want %d", c.path, len(body), resp.StatusCode, want)
			}
		}
	}
	// Blank lines carry no events, so only the size can be refused.
	blank := strings.Repeat(strings.Repeat(" ", 1<<19)+"\n", maxIngestBody>>19+1)
	if status, ack := ingest(t, url, blank); status != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /ingest with a %d-byte body: %d %v, want 413", len(blank), status, ack)
	}
	if status, ack := ingest(t, url, blank[:1<<20], `{"node":0,"value":1,"ts":1}`); status != http.StatusOK || ack["accepted"].(float64) != 1 {
		t.Errorf("POST /ingest with a 1 MiB body: %d %v, want one event accepted", status, ack)
	}
}

// TestRouterHealthProbes: /stats surfaces per-shard /healthz verdicts, and
// a dead shard reports unhealthy without failing the stats request.
func TestRouterHealthProbes(t *testing.T) {
	url, shards := newFleet(t, 2, nil)

	st := decodeInto[map[string]any](t, mustGetOK(t, url+"/stats"))
	hs := st["shardHealth"].([]any)
	if len(hs) != 2 {
		t.Fatalf("shardHealth = %v, want 2 entries", hs)
	}
	for i, h := range hs {
		if h.(map[string]any)["healthy"] != true {
			t.Fatalf("shard %d reported unhealthy: %v", i, h)
		}
	}

	// Kill shard 1: probes must fail closed, not hang or kill /stats.
	shards[1].Close()
	st = decodeInto[map[string]any](t, mustGetOK(t, url+"/stats"))
	hs = st["shardHealth"].([]any)
	h1 := hs[1].(map[string]any)
	if h1["healthy"] != false || h1["error"] == "" {
		t.Fatalf("dead shard health = %v, want unhealthy with error", h1)
	}
}

// TestRouterTopoReadFailsOver: when the preferred shard is down entirely,
// a topo read falls through to the next replica and still answers.
func TestRouterTopoReadFailsOver(t *testing.T) {
	url, shards := newFleet(t, 2, nil)
	reg := decodeInto[routerQuery](t, postJSON(t, url+"/queries", map[string]any{"aggregate": "wedges"}))

	shards[0].Close()

	read, err := http.Get(fmt.Sprintf("%s/queries/%d/read?node=1", url, reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	if read.StatusCode != http.StatusOK {
		t.Fatalf("failover read status = %d, want 200", read.StatusCode)
	}
	// Ego 1's neighborhood {0,2} gives one wedge.
	got := decodeInto[map[string]any](t, read)
	if got["scalar"].(float64) != 1 {
		t.Fatalf("wedges(1) after failover = %v, want 1", got)
	}
}

// TestRouterReadBodyMatchesServer: the router answers a read with the same
// bytes as one eagr-serve over the same graph and stream — a zero SUM and an
// empty TOP-K included, whose scalar and list a shard leaves out.
func TestRouterReadBodyMatchesServer(t *testing.T) {
	routed, _ := newFleet(t, 2, nil)
	single := shardtest.HTTPShards(t, 1, fleetGraph, eagr.Options{}, nil)[0].URL
	aggs := []string{"sum", "topk(3)"}
	ids := map[string][]int{}
	for _, base := range []string{routed, single} {
		for _, a := range aggs {
			resp := postJSON(t, base+"/queries", map[string]any{"aggregate": a})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("register %s on %s: status %d", a, base, resp.StatusCode)
			}
			ids[base] = append(ids[base], decodeInto[server.QueryResp](t, resp).ID)
		}
		// Node 0's zero reaches its out-neighbour's SUM as a valid 0; node 5
		// has no edges, so both answers there are empty.
		if status, ack := ingest(t, base, `{"node":0,"value":0,"ts":1}`); status != http.StatusOK {
			t.Fatalf("ingest on %s = %d %v", base, status, ack)
		}
	}
	body := func(base string, id, v int) string {
		resp := mustGetOK(t, fmt.Sprintf("%s/queries/%d/read?node=%d", base, id, v))
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i, a := range aggs {
		for v := range 6 {
			got, want := body(routed, ids[routed][i], v), body(single, ids[single][i], v)
			if got != want {
				t.Errorf("%s at node %d: router %s, server %s", a, v, got, want)
			}
		}
	}
}

func mustGetOK(t *testing.T, u string) *http.Response {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d", u, resp.StatusCode)
	}
	return resp
}
