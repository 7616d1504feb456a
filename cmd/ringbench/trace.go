package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: which rung of the
// ladder (or which layer) it entered, for which query, when, and the rung
// one step up the stack whose time contains this one.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Query    int    `json:"query"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op on nil, so the measured loops carry
// one pointer test and never allocate a span.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// add records a finished call. start/end are the same clock readings the
// caller's latency sample — and from it the per-layer metric — is computed
// from, so a span never costs a second clock read and trace.json holds
// exactly the intervals the report was derived from.
func (t *tracer) add(name, parent string, query int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Workload: t.workload, Name: name, Query: query, Parent: parent,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
