package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark from outside the layer. Spans of one request (one 64-tuple
// batch) share its batch id; parent is the index of the span that caused
// this one, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Batch  int    `json:"batch"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, which is how the spans-off comparison runs
// the identical code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used as
// the parent of spans it causes.
func (t *tracer) begin(name string, batch, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Batch: batch, Parent: parent, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.origin))
	}
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, upTo), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName groups self times by span name, in recording order.
func selfByName(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
