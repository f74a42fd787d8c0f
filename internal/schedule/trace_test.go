package schedule

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"wavesched/internal/telemetry"
)

// traceRec mirrors the JSONL trace record fields the tests care about.
type traceRec struct {
	Kind   string          `json:"kind"`
	ID     int64           `json:"id"`
	Trace  int64           `json:"trace"`
	Parent int64           `json:"parent"`
	Name   string          `json:"name"`
	Attrs  json.RawMessage `json:"attrs"`
}

func parseTrace(t *testing.T, buf *bytes.Buffer) []traceRec {
	t.Helper()
	var recs []traceRec
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var r traceRec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestRETTracePropagation: every span and event emitted by a decomposed
// RET solve — including those from the parallel per-component workers —
// must carry the caller's trace ID, and component spans must parent to
// the schedule.ret root span. Run with -race: the workers write to one
// shared sink.
func TestRETTracePropagation(t *testing.T) {
	inst := clusteredRETInstance(t, 3, 40)
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf).WithTrace(42)
	cfg := RETConfig{Solver: dantzigOpts(), Parallelism: 4}
	cfg.Solver.Tracer = tr
	res, err := SolveRET(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components < 3 {
		t.Fatalf("instance decomposed into %d components, want >= 3", res.Components)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	recs := parseTrace(t, &buf)
	if len(recs) == 0 {
		t.Fatal("no trace records emitted")
	}
	var retID int64
	for _, r := range recs {
		if r.Trace != 42 {
			t.Errorf("%s record %q has trace %d, want 42", r.Kind, r.Name, r.Trace)
		}
		if r.Kind == "span" && r.Name == "schedule.ret" {
			retID = r.ID
		}
	}
	if retID == 0 {
		t.Fatal("no schedule.ret span")
	}
	compIDs := make(map[int64]bool)
	for _, r := range recs {
		if r.Kind == "span" && r.Name == "schedule.ret_component" {
			compIDs[r.ID] = true
			if r.Parent != retID {
				t.Errorf("component span %d parents to %d, want schedule.ret span %d",
					r.ID, r.Parent, retID)
			}
		}
	}
	if len(compIDs) < 3 {
		t.Errorf("want >= 3 schedule.ret_component spans, got %d", len(compIDs))
	}
	lpUnderComp := 0
	for _, r := range recs {
		if r.Kind == "span" && r.Name == "lp.solve" && compIDs[r.Parent] {
			lpUnderComp++
		}
	}
	if lpUnderComp == 0 {
		t.Error("no lp.solve span nested under a component span")
	}
}

// TestRETProbeCallbackConcurrent: OnProbe fires from the worker pool;
// collecting under a caller-side lock (the controller's pattern) must be
// race-free and capture at least one probe per component.
func TestRETProbeCallbackConcurrent(t *testing.T) {
	inst := clusteredRETInstance(t, 3, 40)
	var mu sync.Mutex
	var probes []ProbeStep
	cfg := RETConfig{
		Solver:      dantzigOpts(),
		Parallelism: 4,
		OnProbe: func(st ProbeStep) {
			mu.Lock()
			probes = append(probes, st)
			mu.Unlock()
		},
	}
	res, err := SolveRET(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 {
		t.Fatal("OnProbe never fired")
	}
	byComp := make(map[string]int)
	for _, p := range probes {
		byComp[p.Component]++
	}
	if len(byComp) < res.Components {
		t.Errorf("probes cover %d components, want %d", len(byComp), res.Components)
	}
	if len(res.Probes) != len(probes) {
		t.Errorf("RETResult.Probes has %d steps, OnProbe saw %d", len(res.Probes), len(probes))
	}
}
