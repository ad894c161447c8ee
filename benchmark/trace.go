package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around the calls it makes into a
// layer; spans inside the program are a later change.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32         // index into tracer.spans; -1 for the root
}

// tracer keeps spans in memory. The simulation is single-threaded, so
// spans nest strictly and the open ones form a stack. A disabled tracer
// costs one branch per call: timed reps run with it off.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = time.Since(t.epoch)
	t.open = t.open[:n]
}

// spanTotals is the aggregate of every span sharing one name.
type spanTotals struct {
	count int
	total time.Duration
	// self is total minus the part of those intervals that child
	// spans cover.
	self time.Duration
}

func (t *tracer) totals() map[string]spanTotals {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range t.spans {
		agg := out[s.name]
		agg.count++
		agg.total += s.end - s.start
		agg.self += s.end - s.start - children[i]
		out[s.name] = agg
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete event per span.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		name, _ := json.Marshal(s.name) // a string always marshals
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
