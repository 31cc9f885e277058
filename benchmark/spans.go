package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own work: the set-up, a
// run, the output check, or one layer rig. Spans are recorded around the
// calls into each layer from the benchmark's files; nothing inside
// internal/ is instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced (-trace 0) path runs. The
// benchmark is single-goroutine, so the open-span stack gives the parent.
type tracer struct {
	workload string // stamped on every span begun while it is set
	origin   time.Time
	spans    []span
	open     []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].EndNs = time.Since(t.origin).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
