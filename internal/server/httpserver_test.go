package server_test

import (
	"net/http"
	"testing"

	"repro/internal/server/servertest"
)

// TestNewHTTPServerCutsStalledHeaders pins the timeout policy where it is
// defined, on a bare handler.
func TestNewHTTPServerCutsStalledHeaders(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	servertest.HalfHeaderClientIsDisconnected(t, ok, "/")
}
