package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Save and Load persist the full dynamic-graph state for checkpointing.
// Everything that influences future mutations is serialized — including the
// free list of deleted ids, in LIFO order, so that a NodeAdd replayed after
// Load allocates exactly the id it allocated before the crash. The format is
// a versioned little-endian binary encoding of the out-adjacency (in-edges
// are reconstructed).

const (
	graphMagic   = 0x45414747 // "EAGG"
	graphVersion = 1
)

// Save writes the graph to w, with one call.
func (g *Graph) Save(w io.Writer) error {
	buf, _ := g.AppendBinary(nil)
	_, err := w.Write(buf)
	return err
}

// AppendBinary appends the encoding Save writes to b, growing b once to
// the encoding's exact size (encoding.BinaryAppender; it never fails).
func (g *Graph) AppendBinary(b []byte) ([]byte, error) {
	le := binary.LittleEndian
	b = slices.Grow(b, 4*(3+2*len(g.out)+g.nEdges+1+len(g.deleted)))
	b = le.AppendUint32(b, graphMagic)
	b = le.AppendUint32(b, graphVersion)
	b = le.AppendUint32(b, uint32(len(g.out)))
	for v := range g.out {
		flags := uint32(0)
		if g.alive[v] {
			flags = 1
		}
		b = le.AppendUint32(b, flags)
		b = le.AppendUint32(b, uint32(len(g.out[v])))
		for _, wv := range g.out[v] {
			b = le.AppendUint32(b, uint32(int32(wv)))
		}
	}
	b = le.AppendUint32(b, uint32(len(g.deleted)))
	for _, id := range g.deleted {
		b = le.AppendUint32(b, uint32(int32(id)))
	}
	return b, nil
}

// Load reads a graph previously written by Save. Every node's out-list and
// in-list is carved, capped at its length, from one array per direction.
func Load(r io.Reader) (*Graph, error) {
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
		return nil, fmt.Errorf("graph: load: %w", err)
	}
	if magic != graphMagic {
		return nil, fmt.Errorf("graph: load: bad magic %#x", magic)
	}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version != graphVersion {
		return nil, fmt.Errorf("graph: load: unsupported version %d", version)
	}
	n, err := readU32()
	if err != nil {
		return nil, err
	}
	const maxNodes = 1 << 30
	if n > maxNodes {
		return nil, fmt.Errorf("graph: load: implausible node count %d", n)
	}
	g := &Graph{
		out:   make([][]NodeID, n),
		in:    make([][]NodeID, n),
		alive: make([]bool, n),
	}
	// The out-lists go into one growing array as they are read (end[v] is
	// where v's ends) and are carved from it once it is complete.
	var outs []NodeID
	end := make([]int, n)
	for v := 0; v < int(n); v++ {
		flags, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("graph: load node %d: %w", v, err)
		}
		g.alive[v] = flags&1 != 0
		if g.alive[v] {
			g.nAlive++
		}
		deg, err := readU32()
		if err != nil {
			return nil, err
		}
		if deg > n {
			return nil, fmt.Errorf("graph: load node %d: out-degree %d exceeds node count", v, deg)
		}
		for range deg {
			raw, err := readU32()
			if err != nil {
				return nil, err
			}
			w := NodeID(int32(raw))
			if w < 0 || w >= NodeID(n) {
				return nil, fmt.Errorf("graph: load node %d: edge to out-of-range node %d", v, w)
			}
			outs = append(outs, w)
		}
		end[v] = len(outs)
	}
	nDel, err := readU32()
	if err != nil {
		return nil, err
	}
	if nDel > n {
		return nil, fmt.Errorf("graph: load: free list longer than node table (%d > %d)", nDel, n)
	}
	if nDel > 0 {
		g.deleted = make([]NodeID, nDel)
		for i := range g.deleted {
			raw, err := readU32()
			if err != nil {
				return nil, err
			}
			id := NodeID(int32(raw))
			if id < 0 || id >= NodeID(n) || g.alive[id] {
				return nil, fmt.Errorf("graph: load: bad free-list id %d", id)
			}
			g.deleted[i] = id
		}
	}
	// Carve the out-lists, validate that every edge's endpoints are alive,
	// and count the in-degrees.
	indeg := make([]int, n)
	start := 0
	for v := range g.out {
		if end[v] > start {
			g.out[v] = outs[start:end[v]:end[v]]
		}
		start = end[v]
		for _, w := range g.out[v] {
			if !g.alive[v] || !g.alive[w] {
				return nil, fmt.Errorf("graph: load: edge %d->%d touches dead node", v, w)
			}
			indeg[w]++
		}
	}
	g.nEdges = len(outs)
	// Rebuild the in-lists, each in ascending source order.
	ins := make([]NodeID, len(outs))
	start = 0
	for w, d := range indeg {
		if d > 0 {
			g.in[w] = ins[start : start : start+d]
		}
		start += d
	}
	for v := range g.out {
		for _, w := range g.out[v] {
			g.in[w] = append(g.in[w], NodeID(v))
		}
	}
	return g, nil
}
