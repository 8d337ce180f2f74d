package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded by
// the benchmark's own code around its calls into the layers' public
// functions; nothing inside the program under test is instrumented.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Op     int64  `json:"op"` // spans of one operation share this
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same workload code serves the traced and untraced runs.
// The mutex is for sharded_http, whose two connections each have a
// goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// layerTime is a span name's aggregate over a trace.
type layerTime struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// selfTimes derives per-name totals and self times: a span's self time is
// its duration minus the part of that interval its child spans cover
// (overlapping children are counted once; children are clipped to the
// parent).
func selfTimes(spans []span) map[string]layerTime {
	kids := map[int32][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			continue // never ended
		}
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range ks {
			cs, ce := spans[k].Start, spans[k].End
			if cs < cursor {
				cs = cursor
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				covered += ce - cs
				cursor = ce
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += dur - covered
		out[s.Name] = lt
	}
	return out
}

// layer is one name's aggregate over everything recorded so far.
func (t *tracer) layer(name string) layerTime { return selfTimes(t.spans)[name] }

// write stores the spans and their per-layer summary as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Layers map[string]layerTime `json:"layers"`
		Spans  []span               `json:"spans"`
	}{selfTimes(t.spans), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
