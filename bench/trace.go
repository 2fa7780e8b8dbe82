package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call into a layer's exported API. Spans of one
// replayed batch or query share TraceID; Parent is the span of the rung
// that encloses this one in the real stack (-1 for a root).
type Span struct {
	Name    string `json:"name"`
	TraceID int    `json:"trace_id"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"` // since the trace began
	End     int64  `json:"end_ns"`
}

// Trace keeps spans in memory and writes them out when the ladder ends.
// The rungs of one batch are replayed one after another, not inside each
// other, so a child's interval does not lie within its parent's; the
// parent link alone says what nests in what.
type Trace struct {
	t0    time.Time
	Spans []Span
}

func newTrace(capacity int) *Trace {
	return &Trace{t0: time.Now(), Spans: make([]Span, 0, capacity)}
}

// Begin opens a span and returns its id.
func (t *Trace) Begin(name string, traceID, parent int) int {
	t.Spans = append(t.Spans, Span{Name: name, TraceID: traceID, Parent: parent})
	id := len(t.Spans) - 1
	t.Spans[id].Start = int64(time.Since(t.t0))
	return id
}

// End closes span id and returns its duration in nanoseconds.
func (t *Trace) End(id int) int64 {
	s := &t.Spans[id]
	s.End = int64(time.Since(t.t0))
	return s.End - s.Start
}

func (s *Span) dur() int64 { return s.End - s.Start }

// SelfTimes returns, for every span, its duration minus the time its
// child spans account for — a layer's own tax, the subtraction ROADMAP
// asks for. Children of one parent were replayed serially on one
// processor, so what they cover is the sum of their durations.
func (t *Trace) SelfTimes() []int64 {
	self := make([]int64, len(t.Spans))
	for i := range t.Spans {
		self[i] += t.Spans[i].dur()
		if p := t.Spans[i].Parent; p >= 0 {
			self[p] -= t.Spans[i].dur()
		}
	}
	return self
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

func (t *Trace) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
