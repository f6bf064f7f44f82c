package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the enclosing span, -1 for an operation's root.
type span struct {
	Op      int     `json:"op"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"` // since the tracer started
	DurUs   float64 `json:"dur_us"`
	Bytes   uint64  `json:"alloc_bytes"`
	Objects uint64  `json:"alloc_objects"`
}

func (s span) ms() float64 { return s.DurUs / 1000 }

// tracer keeps the spans of a traced run in memory; they are written out
// once the run ends. A nil *tracer still times calls — that is the
// untraced path — but reads no allocation counters and records nothing,
// so the difference between a traced and an untraced run of the same
// calls is the tracing overhead.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span whose call is still running.
type openSpan struct {
	id    int
	start time.Time
	a0    allocs
}

// begin opens a span named name under parent for operation op.
func (tr *tracer) begin(op, parent int, name string) openSpan {
	if tr == nil {
		return openSpan{id: -1, start: time.Now()}
	}
	o := openSpan{id: len(tr.spans), a0: readAllocs()}
	tr.spans = append(tr.spans, span{Op: op, ID: o.id, Parent: parent, Name: name})
	o.start = time.Now()
	return o
}

// end closes o and returns it as a finished span.
func (tr *tracer) end(o openSpan) span {
	stop := time.Now()
	d := float64(stop.Sub(o.start)) / float64(time.Microsecond)
	if tr == nil {
		return span{ID: -1, Parent: -1, DurUs: d}
	}
	a := readAllocs().sub(o.a0)
	s := &tr.spans[o.id]
	s.StartUs = float64(o.start.Sub(tr.t0)) / float64(time.Microsecond)
	s.DurUs = d
	s.Bytes, s.Objects = a.Bytes, a.Objects
	return *s
}

// call runs fn inside a span and returns the span.
func (tr *tracer) call(op, parent int, name string, fn func()) span {
	o := tr.begin(op, parent, name)
	fn()
	return tr.end(o)
}

// selfMs returns, per span name, the self time in milliseconds of every
// span with that name: its duration minus the part its child spans
// cover. Children never overlap here (each operation is sequential), so
// that part is the sum of the children's durations.
func selfMs(spans []span) map[string][]float64 {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.DurUs
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], (s.DurUs-child[i])/1000)
	}
	return out
}

// spanFile is the on-disk form of a traced run.
type spanFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Spans       []span      `json:"spans"`
}

// writeSpans writes the traced run's spans as JSON under dir.
func writeSpans(dir string, fp fingerprint, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spanFile{Fingerprint: fp, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, runName(fp, true)+".spans.json"), b, 0o644)
}
