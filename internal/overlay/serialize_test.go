package overlay

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

func roundTrip(t *testing.T, o *Overlay) *Overlay {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSaveLoadRoundTrip(t *testing.T) {
	o, ag := figure1dLikeOverlay(t)
	o.Node(o.Reader(0, 4)).Dec = Push
	l := roundTrip(t, o)
	if l.NumEdges() != o.NumEdges() || l.AGEdges() != o.AGEdges() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			l.NumEdges(), l.AGEdges(), o.NumEdges(), o.AGEdges())
	}
	if err := l.ValidateAgainst(ag, false); err != nil {
		t.Fatal(err)
	}
	if l.Node(l.Reader(0, 4)).Dec != Push {
		t.Fatal("decision not preserved")
	}
	if l.DebugString() != o.DebugString() {
		t.Fatalf("structure differs:\n%s\nvs\n%s", l.DebugString(), o.DebugString())
	}
}

func TestSaveLoadNegativeEdgesAndDeadNodes(t *testing.T) {
	o := New(10)
	w0, w1 := o.AddWriter(0), o.AddWriter(1)
	p := o.AddPartial()
	dead := o.AddPartial()
	r := o.AddReader(0, 5)
	mustEdge(t, o, w0, p, false)
	mustEdge(t, o, w1, p, false)
	mustEdge(t, o, p, r, false)
	mustEdge(t, o, w1, r, true)
	if err := o.RemoveNode(dead); err != nil {
		t.Fatal(err)
	}
	l := roundTrip(t, o)
	if l.NumNodes() != o.NumNodes() {
		t.Fatalf("live nodes = %d, want %d", l.NumNodes(), o.NumNodes())
	}
	if !l.Alive(p) || l.Alive(dead) {
		t.Fatal("aliveness not preserved")
	}
	st := l.ComputeStats()
	if st.NegEdges != 1 {
		t.Fatalf("negative edges = %d, want 1", st.NegEdges)
	}
	in := l.InputSet(l.Reader(0, 5))
	if in[0] != 1 || in[1] != 0 {
		t.Fatalf("input set after load = %v", in)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 0, 0, 0, 0},
		"truncated": {0x52, 0x47, 0x41, 0x45, 1, 0, 0, 0, 5, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: Load should fail", name)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	o := New(0)
	o.AddWriter(1)
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // bump version
	if _, err := Load(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}

func TestLoadRejectsCorruptEdges(t *testing.T) {
	o := New(0)
	w := o.AddWriter(0)
	r := o.AddReader(0, 1)
	mustEdge(t, o, w, r, false)
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The last u32 is the reader's single in-edge; point it out of range.
	data[len(data)-4] = 0xff
	data[len(data)-3] = 0xff
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt edge target should fail")
	}
}

func TestSaveLoadRandomOverlays(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		o := New(rng.Intn(100))
		var writers, partials []NodeRef
		for i := 0; i < 5+rng.Intn(10); i++ {
			writers = append(writers, o.AddWriter(graph.NodeID(i)))
		}
		for i := 0; i < 1+rng.Intn(5); i++ {
			p := o.AddPartial()
			for k := 0; k < 1+rng.Intn(3); k++ {
				src := writers[rng.Intn(len(writers))]
				if !o.HasEdge(src, p) {
					mustEdge(t, o, src, p, false)
				}
			}
			partials = append(partials, p)
		}
		for i := 0; i < 3+rng.Intn(5); i++ {
			r := o.AddReader(0, graph.NodeID(100+i))
			for k := 0; k < 1+rng.Intn(4); k++ {
				var src NodeRef
				if rng.Intn(2) == 0 {
					src = writers[rng.Intn(len(writers))]
				} else {
					src = partials[rng.Intn(len(partials))]
				}
				if !o.HasEdge(src, r) {
					mustEdge(t, o, src, r, rng.Intn(5) == 0)
				}
			}
		}
		l := roundTrip(t, o)
		if l.DebugString() != o.DebugString() {
			t.Fatalf("trial %d: round trip differs", trial)
		}
	}
}

// TestSaveLoadMergedOverlay: a merged overlay's readers — several query tags
// at one data-graph node — keep their tags through a round trip.
func TestSaveLoadMergedOverlay(t *testing.T) {
	o := New(7)
	w0, w1, w2 := o.AddWriter(0), o.AddWriter(1), o.AddWriter(2)
	p := o.AddPartial()
	mustEdge(t, o, w0, p, false)
	mustEdge(t, o, w1, p, false)
	readers := map[ReaderID][]NodeRef{
		{Tag: 0, Node: 1}: {p},
		{Tag: 1, Node: 1}: {p, w2},
		{Tag: 3, Node: 1}: {w2},
		{Tag: 3, Node: 2}: {w0},
	}
	for id, ins := range readers {
		r := o.AddReader(id.Tag, id.Node)
		for _, in := range ins {
			mustEdge(t, o, in, r, false)
		}
	}
	l := roundTrip(t, o)
	if l.DebugString() != o.DebugString() {
		t.Fatalf("structure differs:\n%s\nvs\n%s", l.DebugString(), o.DebugString())
	}
	top := l.Flatten()
	for id := range readers {
		ref := l.Reader(id.Tag, id.Node)
		if ref == NoNode || ref != o.Reader(id.Tag, id.Node) || top.Reader(id.Tag, id.Node) != ref {
			t.Fatalf("reader %v: loaded ref %d, saved %d, topology %d", id, ref, o.Reader(id.Tag, id.Node), top.Reader(id.Tag, id.Node))
		}
	}
	if got := len(l.ReadersOf(1)); got != 3 {
		t.Fatalf("node 1 has %d readers after load, want 3", got)
	}
}

// TestLoadOlderVersions decodes hand-encoded files of the earlier formats:
// version 1 (no tags) and version 2, whose merged overlays stored each
// reader as tag*stride + node with the stride after the AG edge count.
func TestLoadOlderVersions(t *testing.T) {
	const pull = uint32(ReaderNode) | 1<<4
	// Writers 0 and 1; node 1's tag-0 reader aggregates writer 0, and in
	// the version-2 file its tag-1 reader (stored as 8 + 1) both writers.
	v1 := []uint32{serialMagic, 1, 1, 3,
		0, 0, 0,
		0, 1, 0,
		pull, 1, 1, 0 << 1,
	}
	v2 := []uint32{serialMagic, 2, 3, 8, 4,
		0, 0, 0,
		0, 1, 0,
		pull, 1, 1, 0 << 1,
		pull, 8 + 1, 2, 0 << 1, 1 << 1,
	}
	for _, c := range []struct {
		name  string
		words []uint32
		want  map[ReaderID]map[graph.NodeID]int
	}{
		{"v1", v1, map[ReaderID]map[graph.NodeID]int{{Tag: 0, Node: 1}: {0: 1}}},
		{"v2", v2, map[ReaderID]map[graph.NodeID]int{{Tag: 0, Node: 1}: {0: 1}, {Tag: 1, Node: 1}: {0: 1, 1: 1}}},
	} {
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, c.words); err != nil {
			t.Fatal(err)
		}
		l, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(l.Readers()); got != len(c.want) {
			t.Fatalf("%s: %d readers, want %d", c.name, got, len(c.want))
		}
		for id, want := range c.want {
			ref := l.Reader(id.Tag, id.Node)
			if ref == NoNode {
				t.Fatalf("%s: reader %v missing", c.name, id)
			}
			if got := l.InputSet(ref); !maps.Equal(got, want) {
				t.Fatalf("%s: reader %v aggregates %v, want %v", c.name, id, got, want)
			}
		}
		// Saved again, the overlay is a version-3 file that loads back.
		if again := roundTrip(t, l); again.DebugString() != l.DebugString() {
			t.Fatalf("%s: re-saved overlay differs:\n%s\nvs\n%s", c.name, again.DebugString(), l.DebugString())
		}
	}
}

// TestLoadRejectsBadTags: only readers carry a tag, and tags stay below
// maxTag.
func TestLoadRejectsBadTags(t *testing.T) {
	for name, flags := range map[string]uint32{
		"tagged writer":  uint32(WriterNode) | 1<<tagShift,
		"tagged partial": uint32(PartialNode) | 1<<tagShift,
		"huge tag":       uint32(ReaderNode) | (maxTag+1)<<tagShift,
	} {
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, []uint32{serialMagic, serialVersion, 0, 1, flags, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "tag") {
			t.Fatalf("%s: Load = %v, want a tag error", name, err)
		}
	}
}
