// End-to-end crash-recovery test: a real eagr-serve process is SIGKILLed
// mid-ingest and restarted on the same -data-dir; the recovered state must
// match an in-process oracle that applied exactly the acknowledged events.
//
// Gated behind EAGR_E2E=1: it re-execs the test binary as the server
// (see TestMain), binds a TCP port, and kills processes — CI runs it,
// plain `go test ./...` skips it.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	eagr "repro"
	"repro/internal/workload"
)

// TestMain re-execs: with EAGR_SERVE_CHILD=1 the test binary IS the
// server (main() parses the remaining args as eagr-serve flags).
func TestMain(m *testing.M) {
	if os.Getenv("EAGR_SERVE_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const (
	e2eNodes  = 60
	e2eDegree = 4
	e2eSeed   = 7
)

type e2eServer struct {
	cmd  *exec.Cmd
	base string
}

func startServer(t *testing.T, dir, addr string) *e2eServer {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-listen", addr,
		"-graph", "social",
		"-nodes", fmt.Sprint(e2eNodes),
		"-degree", fmt.Sprint(e2eDegree),
		"-seed", fmt.Sprint(e2eSeed),
		"-aggregate", "sum",
		"-window", "4",
		"-data-dir", dir,
		"-fsync", "per-batch",
		"-checkpoint-interval", "100ms",
	)
	cmd.Env = append(os.Environ(), "EAGR_SERVE_CHILD=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &e2eServer{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.base + "/stats")
		if err == nil {
			resp.Body.Close()
			return s
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("server at %s never came up: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (s *e2eServer) kill(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = s.cmd.Wait()
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func postJSON(t *testing.T, url string, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode != http.StatusNoContent {
		t.Fatal(err)
	}
	return v
}

func TestServeCrashRecoveryE2E(t *testing.T) {
	if os.Getenv("EAGR_E2E") != "1" {
		t.Skip("set EAGR_E2E=1 to run the process-level crash test")
	}
	dir := t.TempDir()
	addr := freeAddr(t)
	srv := startServer(t, dir, addr)

	// Two more standing queries next to the flag-registered tuple-window
	// sum (id 1): a time-windowed count and a 2-hop sum that merges into
	// the first query's overlay family.
	postJSON(t, srv.base+"/queries", `{"aggregate":"count","windowTime":50}`)
	postJSON(t, srv.base+"/queries", `{"aggregate":"sum","windowTuples":4,"hops":2}`)

	// Stream sync /ingest chunks; a 200 means applied AND fsynced (the
	// server runs fsync=per-batch), so every acked chunk must survive.
	var acked []eagr.Event
	ts := int64(0)
	sendChunk := func(n int) {
		var sb strings.Builder
		evs := make([]eagr.Event, 0, n)
		for i := 0; i < n; i++ {
			ts++
			node := int(ts*13) % e2eNodes
			val := ts % 97
			fmt.Fprintf(&sb, `{"node":%d,"value":%d,"ts":%d}`+"\n", node, val, ts)
			evs = append(evs, eagr.NewWrite(eagr.NodeID(node), val, ts))
		}
		resp, err := http.Post(srv.base+"/ingest", "application/x-ndjson", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest chunk: status %d", resp.StatusCode)
		}
		acked = append(acked, evs...)
	}
	for c := 0; c < 20; c++ {
		sendChunk(25)
	}
	t.Logf("pre-kill q1 node0: %v", getJSON(t, srv.base+"/queries/1/read?node=0"))
	// Kill without warning: no shutdown checkpoint.
	srv.kill(t)

	// Restart on the same directory (fresh port: the killed process's
	// socket may linger) and wait for recovery.
	srv2 := startServer(t, dir, freeAddr(t))
	defer srv2.kill(t)

	// The recovered server must report all three queries and its recovery
	// summary in /stats. How much it replayed depends on where the last
	// background checkpoint fell; the oracle below checks what it rebuilt.
	stats := getJSON(t, srv2.base+"/stats")
	durSec, ok := stats["durability"].(map[string]any)
	if !ok {
		t.Fatalf("no durability section after recovery: %v", stats)
	}
	replayed, ok := durSec["replayedBatches"].(float64)
	if !ok {
		t.Fatalf("no replayedBatches in the durability section: %v", durSec)
	}
	t.Logf("recovery replayed %v batches", replayed)
	queries := getJSONList(t, srv2.base+"/queries")
	if len(queries) != 3 {
		t.Fatalf("recovered %d queries, want 3", len(queries))
	}

	// Oracle: same deterministic graph, same queries, exactly the acked
	// events, expiry at the final watermark (the max acked ts).
	g := workload.SocialGraph(e2eNodes, e2eDegree, e2eSeed)
	oracle, err := eagr.Open(g, eagr.Options{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := oracle.Register(eagr.QuerySpec{Aggregate: "sum", WindowTuples: 4})
	q2, _ := oracle.Register(eagr.QuerySpec{Aggregate: "count", WindowTime: 50})
	q3, _ := oracle.Register(eagr.QuerySpec{Aggregate: "sum", WindowTuples: 4, Hops: 2})
	if err := oracle.ApplyBatch(acked); err != nil {
		t.Fatal(err)
	}
	oracle.ExpireAll(ts)

	for _, oq := range []*eagr.Query{q1, q2, q3} {
		for v := 0; v < e2eNodes; v++ {
			want, werr := oq.Read(eagr.NodeID(v))
			if werr != nil {
				continue
			}
			got := getJSON(t, fmt.Sprintf("%s/queries/%d/read?node=%d", srv2.base, oq.ID(), v))
			if got["valid"] != want.Valid {
				t.Fatalf("query %d node %d: valid=%v, oracle %v", oq.ID(), v, got["valid"], want.Valid)
			}
			gotScalar := int64(0)
			if f, ok := got["scalar"].(float64); ok {
				gotScalar = int64(f)
			}
			if want.Valid && gotScalar != want.Scalar {
				t.Fatalf("query %d node %d: scalar=%d, oracle %d", oq.ID(), v, gotScalar, want.Scalar)
			}
		}
	}
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getJSONList(t *testing.T, url string) []map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}
