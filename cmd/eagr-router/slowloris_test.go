package main

import (
	"testing"

	"repro/internal/server/servertest"
)

func TestHalfHeaderClientIsDisconnected(t *testing.T) {
	servertest.HalfHeaderClientIsDisconnected(t, newRouter([]string{"http://127.0.0.1:1"}), "/queries")
}
