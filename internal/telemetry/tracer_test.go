package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("anything")
	sp.End(KV("k", 1))
	tr.Event("ev")
	if err := tr.Flush(); err != nil {
		t.Error(err)
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
}

func TestTracerEmitsParseableJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sp := tr.Start("lp.solve")
	sp.End(KV("status", "optimal"), KV("iters", 42))
	tr.Event("ret.search_step", KV("b", 1.5), KV("feasible", true))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var span struct {
		TS    string         `json:"ts"`
		Kind  string         `json:"kind"`
		Name  string         `json:"name"`
		DurUS float64        `json:"dur_us"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Fatalf("span line not JSON: %v", err)
	}
	if span.Kind != "span" || span.Name != "lp.solve" || span.DurUS < 0 {
		t.Errorf("span = %+v", span)
	}
	if span.Attrs["status"] != "optimal" || span.Attrs["iters"] != float64(42) {
		t.Errorf("span attrs = %v", span.Attrs)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("event line not JSON: %v", err)
	}
	if ev["kind"] != "event" || ev["name"] != "ret.search_step" {
		t.Errorf("event = %v", ev)
	}
}

// TestTracerHierarchy checks that derived tracers stamp trace and parent
// IDs so a reader can reconstruct the causal tree.
func TestTracerHierarchy(t *testing.T) {
	var buf bytes.Buffer
	root := NewTracer(&buf)

	tr := root.WithTrace(7)
	if tr.trace != 7 {
		t.Fatalf("trace = %d, want 7", tr.trace)
	}
	epoch := tr.Start("controller.epoch")
	child := epoch.Tracer()
	solve := child.Start("lp.solve")
	solve.End(KV("status", "optimal"))
	child.Event("ret.search_step", KV("b", 1.0))
	epoch.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	type rec struct {
		Kind   string `json:"kind"`
		ID     int64  `json:"id"`
		Trace  int64  `json:"trace"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	recs := make([]rec, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &recs[i]); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	// Records appear in End order: lp.solve, event, epoch.
	lp, ev, ep := recs[0], recs[1], recs[2]
	if ep.Name != "controller.epoch" || ep.Trace != 7 || ep.Parent != 0 {
		t.Errorf("epoch = %+v", ep)
	}
	if lp.Name != "lp.solve" || lp.Trace != 7 || lp.Parent != ep.ID {
		t.Errorf("lp = %+v (epoch id %d)", lp, ep.ID)
	}
	if ev.Trace != 7 || ev.Parent != ep.ID {
		t.Errorf("event = %+v (epoch id %d)", ev, ep.ID)
	}
}

// TestRootTracerOmitsHierarchyFields pins the root-scope wire format to
// the pre-hierarchy schema: no trace/parent keys at all.
func TestRootTracerOmitsHierarchyFields(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Start("op").End()
	_ = tr.Flush()
	if strings.Contains(buf.String(), `"trace"`) || strings.Contains(buf.String(), `"parent"`) {
		t.Errorf("root record leaked hierarchy fields: %s", buf.String())
	}
}

func TestNilTracerHierarchyIsNoOp(t *testing.T) {
	var tr *Tracer
	derived := tr.WithTrace(3)
	if derived != nil {
		t.Error("WithTrace on nil tracer should stay nil")
	}
	sp := derived.Start("x")
	if sp.Tracer() != nil {
		t.Error("Span.Tracer on zero span should be nil")
	}
	sp.End()
}

// TestTracerConcurrent checks that concurrent spans and events produce
// whole lines (no interleaving); run with -race.
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("op")
				sp.End(KV("i", i))
				tr.Event("tick", KV("i", i))
			}
		}()
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != workers*perWorker*2 {
		t.Fatalf("lines = %d, want %d", len(lines), workers*perWorker*2)
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %q", i, line)
		}
	}
}
