package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child processes (eagr-serve, eagr-router) of the sharded_http workload.
// Every child is registered here, so whichever way a run ends — return,
// error, signal — stopAllChildren kills and reaps what is still running.
// Pdeathsig covers the one path that runs no Go code: the driver itself
// being killed.

var (
	childMu  sync.Mutex
	children = map[*child]struct{}{}
)

type child struct {
	cmd  *exec.Cmd
	name string
	log  *os.File
	done chan struct{} // closed when Wait returned
}

// startChild launches bin with args, its output going to logPath.
func startChild(name, bin, logPath string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{cmd: cmd, name: name, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	childMu.Lock()
	children[c] = struct{}{}
	childMu.Unlock()
	return c, nil
}

// kill stops the child at once (the crash a recovery drill needs) and
// waits until it has ended.
func (c *child) kill() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Kill()
	<-c.done
	childMu.Lock()
	delete(children, c)
	childMu.Unlock()
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// rssMB reads the child's resident set from /proc.
func (c *child) rssMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// stopAllChildren kills and reaps every child still running.
func stopAllChildren() {
	childMu.Lock()
	var live []*child
	for c := range children {
		live = append(live, c)
	}
	childMu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

func liveChildren() int {
	childMu.Lock()
	defer childMu.Unlock()
	return len(children)
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the sandbox competes
// for ports in that window.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// httpConn is one keep-alive connection: a client whose transport holds at
// most one connection to the host, so "two connections from the driver" is
// enforced rather than hoped for.
type httpConn struct {
	c    *http.Client
	base string
}

func newHTTPConn(base string) *httpConn {
	return &httpConn{base: base, c: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (h *httpConn) close() { h.c.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out (unless nil).
// Anything but 2xx is an error.
func (h *httpConn) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(payload))
	}
	if out != nil && len(bytes.TrimSpace(payload)) > 0 {
		if err := json.Unmarshal(payload, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// waitReady polls path until it answers 2xx, the child exits, or the
// deadline passes.
func waitReady(c *child, base, path string, timeout time.Duration) error {
	conn := newHTTPConn(base)
	defer conn.close()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", c.name, c.log.Name())
		}
		if err := conn.do(http.MethodGet, path, nil, nil); err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready on %s%s after %v", c.name, base, path, timeout)
}

// serveArgs are the eagr-serve flags of one shard over the benchmark's
// social graph.
func serveArgs(port, nodes, degree int, seed int64, extra ...string) []string {
	return append([]string{
		"-listen", "127.0.0.1:" + strconv.Itoa(port),
		"-graph", "social", "-nodes", strconv.Itoa(nodes), "-degree", strconv.Itoa(degree),
		"-seed", strconv.FormatInt(seed, 10),
	}, extra...)
}

// requireBinaries fails early, before any timer starts, when run.sh has
// not built the service binaries.
func requireBinaries(bin string) error {
	for _, name := range []string{"eagr-serve", "eagr-router"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			return fmt.Errorf("%s not built in %s (start the benchmark through bench/run.sh): %w", name, bin, err)
		}
	}
	return nil
}
