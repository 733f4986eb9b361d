package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call made by the benchmark: a client request, or a
// call into one layer's public functions.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0 for a root span
	Op     int           `json:"op"`               // the input the call was made for
	Start  time.Duration `json:"start_ns"`         // since the trace origin
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; one per goroutine.
type tracer struct {
	origin time.Time
	base   int // added to span ids, so spans of several tracers merge cleanly
	spans  []span
}

func newTracer(origin time.Time, base int) *tracer {
	return &tracer{origin: origin, base: base, spans: make([]span, 0, 1024)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	id := t.base + len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: time.Since(t.origin)})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) { t.spans[id-t.base-1].End = time.Since(t.origin) }

// selfTimes maps every span id to its duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	durs, self []float64 // seconds
}

func statsByName(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.durs = append(st.durs, s.dur().Seconds())
		st.self = append(st.self, self[s.ID].Seconds())
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
