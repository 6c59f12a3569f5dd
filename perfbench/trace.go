package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share the op's
// id; a stage-replay span's parent is the span of the op's real
// end-to-end call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written once, when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a finished span and returns its id.
func (t *tracer) record(name string, op int, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// time runs f as one span.
func (t *tracer) time(name string, op int, parent int64, f func()) {
	start := time.Now()
	f()
	t.record(name, op, parent, start, time.Now())
}

// selfTimes returns each span's self time, index-aligned with spans:
// its duration minus the part of its interval that its children cover.
// Caller holds mu.
func (t *tracer) selfTimes() []time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// selfByName sums self time by span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, d := range t.selfTimes() {
		out[t.spans[i].Name] += d
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	for i, d := range t.selfTimes() {
		t.spans[i].Self = int64(d)
	}
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	return path, os.WriteFile(path, data, 0o644)
}
