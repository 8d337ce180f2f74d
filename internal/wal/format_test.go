package wal

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/graph"
)

// The expected bytes of TestCheckpointFormatGolden, written by the encoders
// that wrote one binary.Write call per word. A checkpoint written by any
// release must load in every later one, so an encoder change that moves a
// byte here is a format change, never a refactor.
const (
	goldenGraphHex = "4747414501000000070000000100000001000000010000000100000002000000000000000300000000000000000000000100000001000000050000000000000000000000010000000100000000000000010000000100000003000000020000000400000002000000"
	goldenCkptHex  = "434741450100000008070605040302014d000000000000000000000000000080fbffffffffffffff030000000000000068000000474741450100000007000000010000000100000001000000010000000200000000000000030000000000000000000000010000000100000005000000000000000000000001000000010000000000000001000000010000000300000002000000040000000200000002000000130000007b22616767726567617465223a2273756d227d00000000020000000700000073756d7c74313002000000000000000200000001000000000000000200000000000000fdffffffffffffffffffffffffffff7f060000000000000000000000000000000143343c"
)

// formatGraph is a small graph with every part of the format: live and
// deleted nodes (a free list of two, in LIFO order), edges, an isolated node.
func formatGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.NewWithNodes(7)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 0}, {1, 3}, {3, 5}, {5, 0}, {6, 3}, {2, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []graph.NodeID{4, 2} {
		if err := g.RemoveNode(v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestCheckpointFormatGolden pins the bytes graph.Save and encodeCheckpoint
// write for a fixed input, and that both decoders read them back to the
// same bytes; every strict prefix of the graph encoding fails to load.
func TestCheckpointFormatGolden(t *testing.T) {
	var gb bytes.Buffer
	if err := formatGraph(t).Save(&gb); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(gb.Bytes()); got != goldenGraphHex {
		t.Errorf("graph.Save wrote\n%s\nwant\n%s", got, goldenGraphHex)
	}
	g, err := graph.Load(bytes.NewReader(gb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := g.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), gb.Bytes()) {
		t.Errorf("graph.Load then Save wrote %x, want %x", again.Bytes(), gb.Bytes())
	}
	for n := range gb.Len() {
		if _, err := graph.Load(bytes.NewReader(gb.Bytes()[:n])); err == nil {
			t.Errorf("graph.Load accepted the first %d of %d bytes", n, gb.Len())
		}
	}

	c := &Checkpoint{
		LSN:         0x0102030405060708,
		NextOrd:     77,
		Watermark:   math.MinInt64,
		MaxTS:       -5,
		NextQueryID: 3,
		Graph:       gb.Bytes(),
		Queries:     [][]byte{[]byte(`{"aggregate":"sum"}`), {}},
		Windows: []GroupWindows{
			{Key: "sum|t10", Windows: []WriterWindow{
				{Node: 0, Entries: []agg.WindowEntry{{V: 1, TS: 2}, {V: -3, TS: math.MaxInt64}}},
				{Node: 6},
			}},
			{Key: ""},
		},
	}
	file := encodeCheckpoint(c)
	if got := hex.EncodeToString(file); got != goldenCkptHex {
		t.Errorf("encodeCheckpoint wrote\n%s\nwant\n%s", got, goldenCkptHex)
	}
	d, err := decodeCheckpoint(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCheckpoint(d), file) {
		t.Errorf("decodeCheckpoint then encodeCheckpoint moved bytes")
	}
	if d.LSN != c.LSN || d.Watermark != c.Watermark || d.MaxTS != c.MaxTS || d.Windows[0].Windows[0].Entries[1] != c.Windows[0].Windows[0].Entries[1] {
		t.Errorf("decoded %+v, want %+v", d, c)
	}
}
