package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the system. Spans of
// one request or write operation share an ID; Parent links a span to
// the operation that caused it (0 for a root).
type span struct {
	Name   string        `json:"name"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of a traced phase in memory until the run ends.
// A nil *tracer records nothing, so untraced phases pay only a nil check.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID returns a fresh span id, or 0 when tracing is off.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores the span [start, end) under name.
func (t *tracer) record(name string, id, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns a position in the span list; queries given it see only
// the spans recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every span named name recorded
// since mark from.
func (t *tracer) durations(name string, from int) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// byID returns the spans named name recorded since mark from, keyed by
// operation id.
func (t *tracer) byID(name string, from int) map[uint64]span {
	out := make(map[uint64]span)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out[s.ID] = s
		}
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// durationsUs converts span durations to microseconds.
func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
