// Package servertest holds the checks eagr-serve, eagr-router and
// internal/server itself run against the listener they share.
package servertest

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
)

// HalfHeaderClientIsDisconnected serves h the way both binaries do, through
// server.NewHTTPServer, and checks that a client which sends half of its
// request headers and then stalls is cut off instead of holding a goroutine
// forever, that no other timeout is set (they would end /watch streams,
// long synchronous /ingest requests and quiet keep-alive connections), and
// that a complete GET of path still answers 200 afterwards.
func HalfHeaderClientIsDisconnected(t *testing.T, h http.Handler, path string) {
	t.Helper()
	srv := server.NewHTTPServer("", h)
	if srv.ReadHeaderTimeout != server.ReadHeaderTimeout || srv.ReadTimeout != 0 || srv.WriteTimeout != 0 || srv.IdleTimeout != 0 {
		t.Fatalf("timeouts: header %v read %v write %v idle %v; want only the header timeout",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // same mechanism, without the ten-second wait
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET "+path+" HTTP/1.1\r\nHost: eagr\r\n"); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns nil only when the server closed the connection.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client was not disconnected: %v", err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request after the stalled one: status %d", resp.StatusCode)
	}
}
