package graph

import (
	"fmt"
	"math"
)

// EventKind labels events in the structure and content data streams (§2.1).
type EventKind uint8

// Event kinds for the structure stream S_G and the content streams S_v.
const (
	// ContentWrite is a write on a node: a new value appended to its
	// content stream S_v.
	ContentWrite EventKind = iota
	// EdgeAdd and EdgeRemove update the connection graph.
	EdgeAdd
	EdgeRemove
	// NodeAdd and NodeRemove create or delete a node.
	NodeAdd
	NodeRemove
	// Read is a user read: a request for the current value of F(N(v)).
	Read
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case ContentWrite:
		return "write"
	case EdgeAdd:
		return "edge-add"
	case EdgeRemove:
		return "edge-remove"
	case NodeAdd:
		return "node-add"
	case NodeRemove:
		return "node-remove"
	case Read:
		return "read"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseEventKind maps the wire spelling of an event kind (the String form:
// "write", "edge-add", "edge-remove", "node-add", "node-remove", "read")
// back to the EventKind. The empty string means ContentWrite, the dominant
// kind on ingestion streams.
func ParseEventKind(s string) (EventKind, error) {
	switch s {
	case "", "write":
		return ContentWrite, nil
	case "edge-add":
		return EdgeAdd, nil
	case "edge-remove":
		return EdgeRemove, nil
	case "node-add":
		return NodeAdd, nil
	case "node-remove":
		return NodeRemove, nil
	case "read":
		return Read, nil
	default:
		return 0, fmt.Errorf("graph: unknown event kind %q", s)
	}
}

// Event is a single timestamped element of the combined data stream. For
// ContentWrite, Node is the writer and Value is the written value. For edge
// events, Node is the source and Peer the target. For Read, Node is the node
// whose aggregate is requested.
type Event struct {
	Kind  EventKind
	Node  NodeID
	Peer  NodeID
	Value int64
	TS    int64 // logical or wall-clock timestamp, caller-defined
}

// NoAdvance is the advanceTo of a batch that does not close time: every
// layer of the write spine applies a batch of events together with the
// watermark the batch advances time-based windows to, and this is the value
// for "none" (the same sentinel an unset watermark or max timestamp uses).
const NoAdvance int64 = math.MinInt64

// IsStructural reports whether the event belongs to the structure stream
// S_G (edge/node changes) rather than a content stream S_v or a read.
func (e Event) IsStructural() bool {
	switch e.Kind {
	case EdgeAdd, EdgeRemove, NodeAdd, NodeRemove:
		return true
	default:
		return false
	}
}
