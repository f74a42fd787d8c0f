package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute attached to a span or event.
type Attr struct {
	Key   string
	Value any
}

// KV builds an attribute.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// sink is the shared write side of a tracer: all derived Tracer handles
// for one output stream point at the same sink, so span IDs are unique
// per stream and lines never interleave.
type sink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	seq    atomic.Int64
	err    error // first write error, reported by Close
}

// Tracer writes structured spans and point events as JSON Lines, one
// object per line. All methods are safe for concurrent use, and every
// method on a nil *Tracer is a no-op, so call sites thread a possibly-nil
// tracer and pay only a nil check when tracing is disabled.
//
// A Tracer is a lightweight immutable handle carrying the causal scope
// (trace ID and parent span ID) on top of a shared sink. Span.Tracer
// derives a child scope, so passing the derived handle down through an
// options struct links everything recorded below to the enclosing span:
//
//	ep := tr.Start("controller.epoch")
//	opts.Tracer = ep.Tracer() // children of the epoch span
//
// Record schema (one JSON object per line):
//
//	{"ts":"<RFC3339Nano>","kind":"span","id":7,"trace":3,"parent":5,
//	 "name":"lp.solve","dur_us":1234.5,
//	 "attrs":{"status":"optimal","iters":42}}
//	{"ts":"<RFC3339Nano>","kind":"event","id":8,"trace":3,"parent":5,
//	 "name":"ret.search_step","attrs":{"b":1.25,"feasible":true}}
//
// trace and parent are omitted when zero (root scope), which keeps the
// flat single-tracer output identical to the pre-hierarchy format. Span
// records are emitted once, when the span ends; dur_us is the span's
// wall-clock duration in microseconds.
type Tracer struct {
	s      *sink
	trace  int64
	parent int64
}

// NewTracer returns a root tracer writing JSONL records to w.
func NewTracer(w io.Writer) *Tracer {
	s := &sink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	return &Tracer{s: s}
}

// OpenTraceFile creates (or truncates) path and returns a tracer writing
// to it. Close flushes and closes the file.
func OpenTraceFile(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open trace file: %w", err)
	}
	return NewTracer(f), nil
}

// WithTrace returns a handle scoped to the given trace ID with no parent
// span. Callers that own a natural causal unit (the controller uses the
// epoch index) pin the trace ID so records group deterministically even
// across restarts and replay.
func (t *Tracer) WithTrace(id int64) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{s: t.s, trace: id}
}

// record is the JSONL wire form.
type record struct {
	TS     string         `json:"ts"`
	Kind   string         `json:"kind"`
	ID     int64          `json:"id"`
	Trace  int64          `json:"trace,omitempty"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	DurUS  *float64       `json:"dur_us,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func (s *sink) write(rec record) {
	line, err := json.Marshal(rec)
	if err != nil {
		return // unmarshalable attr; drop the record rather than fail the run
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = err
		return
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
	}
}

// Span is an in-progress timed operation. The zero Span (from a nil
// tracer) is valid and End on it is a no-op.
type Span struct {
	t     *Tracer
	name  string
	id    int64
	start time.Time
}

// Start begins a span in the tracer's scope. End emits the record.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, id: t.s.seq.Add(1), start: time.Now()}
}

// Tracer derives a child handle whose spans and events are parented to
// this span. The zero Span yields nil, preserving nil-safety all the way
// down the call chain.
func (s Span) Tracer() *Tracer {
	if s.t == nil {
		return nil
	}
	return &Tracer{s: s.t.s, trace: s.t.trace, parent: s.id}
}

// ID reports the span's ID within its trace (0 for the zero Span).
func (s Span) ID() int64 { return s.id }

// End finishes the span, attaching the given attributes.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	now := time.Now()
	dur := float64(now.Sub(s.start)) / float64(time.Microsecond)
	s.t.s.write(record{
		TS:     now.UTC().Format(time.RFC3339Nano),
		Kind:   "span",
		ID:     s.id,
		Trace:  s.t.trace,
		Parent: s.t.parent,
		Name:   s.name,
		DurUS:  &dur,
		Attrs:  attrMap(attrs),
	})
}

// Event emits a point-in-time record in the tracer's scope.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.s.write(record{
		TS:     time.Now().UTC().Format(time.RFC3339Nano),
		Kind:   "event",
		ID:     t.s.seq.Add(1),
		Trace:  t.trace,
		Parent: t.parent,
		Name:   name,
		Attrs:  attrMap(attrs),
	})
}

// Flush forces buffered records out.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.s.err != nil {
		return t.s.err
	}
	return t.s.w.Flush()
}

// Close flushes and closes the underlying writer, returning the first
// error seen on any write. Closing any derived handle closes the shared
// sink.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	ferr := t.s.w.Flush()
	if t.s.closer != nil {
		if cerr := t.s.closer.Close(); ferr == nil {
			ferr = cerr
		}
	}
	if t.s.err != nil {
		return t.s.err
	}
	return ferr
}
