package server

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzIngestLine drives the NDJSON /ingest grammar: ParseIngestLine must
// never panic, and every accepted line must survive a re-encode through
// AppendIngestLine and a reparse unchanged — the property eagr-router relies
// on when it re-stamps timestamps and fans events out to shards, since
// HTTPShard.Apply sends exactly what AppendIngestLine writes.
func FuzzIngestLine(f *testing.F) {
	for _, s := range []string{
		`{"node":3,"value":7,"ts":9}`,
		`{"kind":"write","node":1,"value":-2,"ts":1}`,
		`{"kind":"edge-add","from":2,"to":5,"ts":3}`,
		`{"kind":"edge-remove","node":2,"peer":5}`,
		`{"kind":"node-add","ts":8}`,
		`{"kind":"node-remove","node":4,"ts":8}`,
		`{"kind":"read","node":0}`,
		`{"kind":"sideways"}`,
		`{"node":`,
		`{"from":1,"to":2}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := ParseIngestLine(data)
		if err != nil {
			return
		}
		if _, kerr := graph.ParseEventKind(ev.Kind.String()); kerr != nil {
			t.Fatalf("accepted line %q produced unknown kind %v", data, ev.Kind)
		}
		canon := AppendIngestLine(nil, ev)
		if bytes.Count(canon, []byte{'\n'}) != 1 || canon[len(canon)-1] != '\n' {
			t.Fatalf("encoding of %+v is not one NDJSON line: %q", ev, canon)
		}
		back, err := ParseIngestLine(bytes.TrimSpace(canon))
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", canon, err)
		}
		if back != ev {
			t.Fatalf("line %q: parsed %+v, canonical reparse %+v", data, ev, back)
		}
	})
}
