package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own files, around public calls; nothing
// inside the simulator is instrumented.
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int           // index into tracer.spans, -1 for a root
	round      int           // -1 outside the measured rounds
	slice      int           // -1 outside a slice
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs execute the same code with no branches of
// their own.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int
	round    int
	slice    int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), round: -1, slice: -1}
}

// at tags subsequent spans with a round and slice index.
func (t *tracer) at(round, slice int) {
	if t != nil {
		t.round, t.slice = round, slice
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, round: t.round, slice: t.slice, start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[")
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d,\"slice\":%d}}",
			s.name, t.workload, float64(s.start.Nanoseconds())/1e3, float64((s.end-s.start).Nanoseconds())/1e3, i, s.parent, s.round, s.slice)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
