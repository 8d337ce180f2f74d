package overlay

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
)

// The overlay is "a pre-compiled data structure" (paper §1) whose
// construction is expensive and amortized over a long deployment; Save and
// Load persist it so a restart does not pay the compilation cost again.
// The format is a versioned little-endian binary encoding of the node table
// with in-edges only (out-edges are reconstructed).

const (
	serialMagic = 0x45414752 // "EAGR"
	// serialVersion 3 stores each reader's query tag in its flags word.
	// Version 2 stored a merged overlay's readers as tag*stride + node
	// with the stride after the AG edge count; version 1 had no tags.
	// Load reads all three.
	serialVersion = 3
	tagShift      = 8
	// maxTag bounds the reader tags Load accepts, so a corrupt file
	// cannot make Flatten allocate per-tag tables for billions of tags.
	maxTag = 1<<16 - 1
)

// Save writes the overlay (structure plus dataflow decisions) to w: the
// encoding is laid out in one buffer of its exact size and written with one
// call.
func (o *Overlay) Save(w io.Writer) error {
	size := 4 * 4
	for i := range o.nodes {
		size += 4 * (3 + len(o.nodes[i].In))
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = le.AppendUint32(buf, serialMagic)
	buf = le.AppendUint32(buf, serialVersion)
	buf = le.AppendUint32(buf, uint32(o.agEdges))
	buf = le.AppendUint32(buf, uint32(len(o.nodes)))
	for i := range o.nodes {
		n := &o.nodes[i]
		flags := uint32(n.Kind) | uint32(n.Tag)<<tagShift
		if n.Dec == Pull {
			flags |= 1 << 4
		}
		if n.dead {
			flags |= 1 << 5
		}
		buf = le.AppendUint32(buf, flags)
		buf = le.AppendUint32(buf, uint32(int32(n.GID)))
		buf = le.AppendUint32(buf, uint32(len(n.In)))
		for _, e := range n.In {
			buf = le.AppendUint32(buf, uint32(PackRef(e.Peer, e.Negative)))
		}
	}
	_, err := w.Write(buf)
	return err
}

// Load reads an overlay previously written by Save.
func Load(r io.Reader) (*Overlay, error) {
	br := bufio.NewReader(r)
	// readU32 reads one little-endian word straight out of br's buffer. A
	// short read is io.EOF when no byte of the word was there and
	// io.ErrUnexpectedEOF when some were, as with binary.Read.
	readU32 := func() (uint32, error) {
		b, err := br.Peek(4)
		if len(b) < 4 {
			if len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		_, _ = br.Discard(4)
		return binary.LittleEndian.Uint32(b), nil
	}
	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("overlay: load: %w", err)
	}
	if magic != serialMagic {
		return nil, fmt.Errorf("overlay: load: bad magic %#x", magic)
	}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version < 1 || version > serialVersion {
		return nil, fmt.Errorf("overlay: load: unsupported version %d", version)
	}
	agEdges, err := readU32()
	if err != nil {
		return nil, err
	}
	var stride uint32
	if version == 2 {
		if stride, err = readU32(); err != nil {
			return nil, err
		}
		if int32(stride) < 0 {
			return nil, fmt.Errorf("overlay: load: bad reader stride %d", stride)
		}
	}
	count, err := readU32()
	if err != nil {
		return nil, err
	}
	const maxNodes = 1 << 30
	if count > maxNodes {
		return nil, fmt.Errorf("overlay: load: implausible node count %d", count)
	}
	o := New(int(agEdges))
	o.nodes = make([]Node, count)
	for i := range o.nodes {
		flags, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("overlay: load node %d: %w", i, err)
		}
		gidRaw, err := readU32()
		if err != nil {
			return nil, err
		}
		deg, err := readU32()
		if err != nil {
			return nil, err
		}
		if deg > count {
			return nil, fmt.Errorf("overlay: load node %d: in-degree %d exceeds node count", i, deg)
		}
		n := &o.nodes[i]
		n.Kind = NodeKind(flags & 0xf)
		if n.Kind > PartialNode {
			return nil, fmt.Errorf("overlay: load node %d: bad kind %d", i, n.Kind)
		}
		n.Dec = Push
		if flags&(1<<4) != 0 {
			n.Dec = Pull
		}
		n.dead = flags&(1<<5) != 0
		n.GID = graph.NodeID(int32(gidRaw))
		tag := flags >> tagShift
		if n.Kind == ReaderNode && stride > 0 {
			tag, n.GID = gidRaw/stride, graph.NodeID(gidRaw%stride)
		}
		if tag > maxTag || tag != 0 && n.Kind != ReaderNode {
			return nil, fmt.Errorf("overlay: load node %d: bad tag %d on a %s", i, tag, n.Kind)
		}
		n.Tag = int32(tag)
		n.In = make([]HalfEdge, deg)
		for j := range n.In {
			peer, err := readU32()
			if err != nil {
				return nil, err
			}
			ref := NodeRef(peer >> 1)
			if int(ref) >= int(count) {
				return nil, fmt.Errorf("overlay: load node %d: edge to out-of-range node %d", i, ref)
			}
			n.In[j] = HalfEdge{Peer: ref, Negative: peer&1 != 0}
		}
	}
	// Rebuild derived state: out-edges, registries, counters.
	for i := range o.nodes {
		n := &o.nodes[i]
		if n.dead {
			o.numDead++
			continue
		}
		switch n.Kind {
		case WriterNode:
			o.writerOf[n.GID] = NodeRef(i)
		case ReaderNode:
			o.registerReader(NodeRef(i))
		}
		for _, e := range n.In {
			if !o.Alive(e.Peer) {
				return nil, fmt.Errorf("overlay: load: node %d has edge from dead node %d", i, e.Peer)
			}
			o.nodes[e.Peer].Out = append(o.nodes[e.Peer].Out, HalfEdge{Peer: NodeRef(i), Negative: e.Negative})
			o.numEdges++
		}
	}
	if err := o.checkStructure(); err != nil {
		return nil, fmt.Errorf("overlay: load: %w", err)
	}
	if _, err := o.TopoOrder(); err != nil {
		return nil, fmt.Errorf("overlay: load: %w", err)
	}
	return o, nil
}
