package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	eagr "repro"
	"repro/internal/shard/shardtest"
	"repro/internal/workload"
)

// TestRouterE2E is the real-binary smoke of the sharding oracle: it builds
// eagr-serve and eagr-router, runs a two-shard fleet over HTTP and drives
// it with the same harness (shardtest.Run) as TestRouterMatchesOracle and
// internal/shard's TestShardedMatchesOracle. Gated behind EAGR_E2E=1 — it
// compiles binaries and binds ports.
func TestRouterE2E(t *testing.T) {
	if os.Getenv("EAGR_E2E") != "1" {
		t.Skip("set EAGR_E2E=1 to run the two-shard router end-to-end test")
	}

	bin := t.TempDir()
	for _, pkg := range []string{"eagr-serve", "eagr-router"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, pkg), "repro/cmd/"+pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	// Both shards and the oracle share one graph seed. The shards also hold
	// a flag-derived initial query ({sum, 3 tuples}).
	const (
		nodes, degree = 48, 4
		graphSeed     = 7
	)
	shardAddrs := []string{freeAddr(t), freeAddr(t)}
	for i, addr := range shardAddrs {
		spawn(t, fmt.Sprintf("shard%d", i), filepath.Join(bin, "eagr-serve"),
			"-listen", addr,
			"-graph", "social",
			"-nodes", fmt.Sprint(nodes),
			"-degree", fmt.Sprint(degree),
			"-seed", fmt.Sprint(graphSeed),
			"-window", "3",
			"-ingest-manual-expire",
		)
	}
	var shardURLs []string
	for _, addr := range shardAddrs {
		shardURLs = append(shardURLs, "http://"+addr)
	}
	for _, u := range shardURLs {
		waitReady(t, u)
	}
	routerAddr := freeAddr(t)
	spawn(t, "router", filepath.Join(bin, "eagr-router"),
		"-listen", routerAddr,
		"-shards", strings.Join(shardURLs, ","),
	)
	routerURL := "http://" + routerAddr
	waitReady(t, routerURL)

	// Runtime registrations through the router: the flag-derived query's
	// spec again, a 2-hop member that merges into its overlay family,
	// independent time- and tuple-window families — all exact under
	// sharding — and two topology-valued queries, which the router answers
	// from one replica instead of merging PAOs.
	specs := []eagr.QuerySpec{
		{Aggregate: "sum", WindowTuples: 3},
		{Aggregate: "sum", WindowTuples: 3, Hops: 2},
		{Aggregate: "count", WindowTime: 40},
		{Aggregate: "max", WindowTuples: 4},
		{Aggregate: "distinct", WindowTime: 50},
		{Aggregate: "density"},
		{Aggregate: "triangles"},
	}
	shardtest.Run(t, workload.SocialGraph(nodes, degree, graphSeed), httpSystem{t, routerURL}, specs, 11, 12, nil)
}

// freeAddr grabs an OS-assigned 127.0.0.1 port and releases it for the
// child process to bind. The gap is racy in principle; in practice the
// kernel does not hand the port back out this fast.
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

// spawn starts a child binary, captures its combined output, and kills it
// (dumping the output first on failure) when the test ends.
func spawn(t *testing.T, name, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		if t.Failed() {
			t.Logf("%s output:\n%s", name, out.String())
		}
	})
}

// waitReady polls GET /stats until the server answers.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s not ready after 15s", base)
}
