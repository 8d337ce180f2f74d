package main

import (
	"testing"

	eagr "repro"
	"repro/internal/server"
	"repro/internal/server/servertest"
	"repro/internal/workload"
)

func TestHalfHeaderClientIsDisconnected(t *testing.T) {
	sess, err := eagr.Open(workload.SocialGraph(20, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	api := server.New(sess)
	defer api.Close()
	servertest.HalfHeaderClientIsDisconnected(t, api, "/stats")
}
