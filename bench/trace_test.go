package main

import "testing"

// Self time is a span's duration minus its children's; grandchildren are
// the children's business.
func TestSelfTimeArithmetic(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Name: "client.ingest", TraceID: 0, Parent: -1, Start: 0, End: 1000},
		{Name: "wire.encode", TraceID: 0, Parent: 0, Start: 1000, End: 1050},
		{Name: "server.ingest", TraceID: 0, Parent: 0, Start: 1050, End: 1650},
		{Name: "wire.decode", TraceID: 0, Parent: 2, Start: 1650, End: 1700},
		{Name: "engine.update", TraceID: 0, Parent: 2, Start: 1700, End: 2100},
		{Name: "sketch.update", TraceID: 0, Parent: 4, Start: 2100, End: 2350},
		{Name: "client.ingest", TraceID: 1, Parent: -1, Start: 3000, End: 3100},
	}}
	want := []int64{
		1000 - 50 - 600, // client: minus encode and server
		50,              // encode: a leaf
		600 - 50 - 400,  // server: minus decode and engine, not the sketch
		50,              // decode
		400 - 250,       // engine: minus sketch
		250,             // sketch
		100,             // a root without children keeps everything
	}
	got := tr.SelfTimes()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, tr.Spans[i].Name, got[i], want[i])
		}
	}
	var sum, roots int64
	for i, s := range tr.Spans {
		sum += got[i]
		if s.Parent < 0 {
			roots += s.dur()
		}
	}
	if sum != roots {
		t.Errorf("self times add up to %d, the root spans to %d: some time was lost or counted twice", sum, roots)
	}
}

func TestTraceRecordsNesting(t *testing.T) {
	tr := newTrace(4)
	root := tr.Begin("server.ingest", 7, -1)
	child := tr.Begin("engine.update", 7, root)
	if d := tr.End(child); d < 0 {
		t.Fatalf("negative duration %d", d)
	}
	tr.End(root)
	if s := tr.Spans[child]; s.Parent != root || s.TraceID != 7 || s.Name != "engine.update" || s.End < s.Start {
		t.Fatalf("child span %+v", s)
	}
}
