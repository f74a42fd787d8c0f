package schedule

import (
	"bytes"
	"encoding/json"
	"reflect"
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
		if r.Kind == "span" && r.Name == "lp.solve" {
			// SUB-RET keeps the all-artificial start (RETConfig.withDefaults).
			var a struct{ Warm, Crash string }
			if err := json.Unmarshal(r.Attrs, &a); err != nil {
				t.Fatal(err)
			}
			if a.Warm != "hit" && a.Crash != "artificial" {
				t.Errorf("cold SUB-RET solve with attrs %s, want crash=artificial", r.Attrs)
			}
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

// TestMaxThroughputSpansEncloseTheirWork: stage 1, stage 2, column
// generation and integerization are spans around what they do, so a trace
// says where a MaxThroughput epoch's time went: every lp.solve parents to
// the phase that ran it (for a master through its schedule.colgen_master
// child), integerization sits under stage 2 when stage 2 was solved and
// beside schedule.colgen when the plan came from the master — in which case
// there is no schedule.stage2 span at all.
func TestMaxThroughputSpansEncloseTheirWork(t *testing.T) {
	g, jobs := goldenGraphJobs(t)
	run := func(colgen bool) []traceRec {
		var buf bytes.Buffer
		opts := partialDantzigOpts()
		opts.Tracer = telemetry.NewTracer(&buf)
		inst, err := NewInstanceOpts(g, mustGrid(t, 6), jobs[:8], InstanceOptions{K: 3, ColumnGen: colgen})
		if err != nil {
			t.Fatal(err)
		}
		if colgen {
			if _, err := GeneratePaths(inst, ColGenConfig{Solver: opts}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := MaxThroughput(inst, Config{Solver: opts, Monolithic: true}); err != nil {
			t.Fatal(err)
		}
		if err := opts.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		return parseTrace(t, &buf)
	}
	index := func(recs []traceRec) (byName map[string][]traceRec, byID map[int64]traceRec) {
		byName, byID = make(map[string][]traceRec), make(map[int64]traceRec)
		for _, r := range recs {
			if r.Kind != "span" {
				t.Errorf("%s is an %s, want a span", r.Name, r.Kind)
			}
			byName[r.Name] = append(byName[r.Name], r)
			byID[r.ID] = r
		}
		return byName, byID
	}

	byName, byID := index(run(false))
	for _, name := range []string{"schedule.stage1", "schedule.stage2", "schedule.integerize"} {
		if len(byName[name]) != 1 {
			t.Fatalf("enumeration: %d %s spans, want 1", len(byName[name]), name)
		}
	}
	if p := byName["schedule.integerize"][0].Parent; p != byName["schedule.stage2"][0].ID {
		t.Errorf("enumeration: schedule.integerize parents to %d, want the schedule.stage2 span", p)
	}
	if len(byName["lp.solve"]) != 2 {
		t.Fatalf("enumeration: %d lp.solve spans, want 2", len(byName["lp.solve"]))
	}
	for i, want := range []string{"schedule.stage1", "schedule.stage2"} {
		if got := byID[byName["lp.solve"][i].Parent].Name; got != want {
			t.Errorf("enumeration: lp.solve %d parents to %q, want %q", i, got, want)
		}
		// Both stages solve the closed model, cold from the slack start: the
		// phase span says how many capacity rows that model has and how many
		// dominated cells it leaves out, the solve says how it started.
		var stage struct {
			CapRows        int `json:"cap_rows"`
			CapRowsDropped int `json:"cap_rows_dropped"`
		}
		var solve struct {
			Rows  int
			Crash string
		}
		if err := json.Unmarshal(byName[want][0].Attrs, &stage); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(byName["lp.solve"][i].Attrs, &solve); err != nil {
			t.Fatal(err)
		}
		if stage.CapRowsDropped <= stage.CapRows || solve.Rows != 8+stage.CapRows || solve.Crash != "slack" {
			t.Errorf("enumeration: %s attrs %s over lp.solve attrs %s, want most capacity cells dropped, 8 job rows + cap_rows, crash=slack",
				want, byName[want][0].Attrs, byName["lp.solve"][i].Attrs)
		}
	}

	byName, byID = index(run(true))
	if n := len(byName["schedule.stage1"]) + len(byName["schedule.stage2"]); n != 0 {
		t.Errorf("colgen: %d stage-1/stage-2 spans, want none: Z* and the plan both come from the masters", n)
	}
	if len(byName["schedule.colgen"]) != 1 || len(byName["schedule.integerize"]) != 1 {
		t.Fatalf("colgen: %d schedule.colgen and %d schedule.integerize spans, want 1 and 1",
			len(byName["schedule.colgen"]), len(byName["schedule.integerize"]))
	}
	cg := byName["schedule.colgen"][0]
	var cgAttrs struct {
		Plan      string
		LexPivots int `json:"lex_pivots"`
		Solves    int
	}
	if err := json.Unmarshal(cg.Attrs, &cgAttrs); err != nil {
		t.Fatal(err)
	}
	if cgAttrs.Plan != PlanMaster || cgAttrs.LexPivots == 0 {
		t.Errorf("colgen: schedule.colgen attrs %s, want plan=master and lex_pivots > 0", cg.Attrs)
	}
	if p := byName["schedule.integerize"][0].Parent; p != cg.Parent {
		t.Errorf("colgen: schedule.integerize parents to %d, want schedule.colgen's parent %d", p, cg.Parent)
	}
	stages, solves := map[string]int{}, 0
	for _, ms := range byName["schedule.colgen_master"] {
		var a struct {
			Stage  string
			Solves int
			Priced bool
		}
		if err := json.Unmarshal(ms.Attrs, &a); err != nil {
			t.Fatal(err)
		}
		if ms.Parent != cg.ID || !a.Priced {
			t.Errorf("colgen: master span %s under %d, want priced and under schedule.colgen %d", ms.Attrs, ms.Parent, cg.ID)
		}
		stages[a.Stage]++
		solves += a.Solves
	}
	if len(stages) != 2 || stages["stage1"] == 0 || stages["stage1"] != stages["stage2"] ||
		solves != cgAttrs.Solves || solves != len(byName["lp.solve"]) {
		t.Errorf("colgen: masters %v with %d solves; schedule.colgen counts %d, the trace has %d lp.solve spans",
			stages, solves, cgAttrs.Solves, len(byName["lp.solve"]))
	}
	cold := 0
	for _, s := range byName["lp.solve"] {
		if byID[s.Parent].Name != "schedule.colgen_master" {
			t.Errorf("colgen: lp.solve parents to %q, want a schedule.colgen_master span", byID[s.Parent].Name)
		}
		var a struct{ Warm, Crash string }
		if err := json.Unmarshal(s.Attrs, &a); err != nil {
			t.Fatal(err)
		}
		// A master's first solve is cold, from the slacks; a warm hit names
		// no crash basis.
		if (a.Warm == "hit") != (a.Crash == "") || (a.Crash != "" && a.Crash != "slack") {
			t.Errorf("colgen: lp.solve attrs %s", s.Attrs)
		}
		if a.Crash != "" {
			cold++
		}
	}
	if cold != len(byName["schedule.colgen_master"]) {
		t.Errorf("colgen: %d cold solves for %d masters", cold, len(byName["schedule.colgen_master"]))
	}
}

// TestRETProbeTrajectoryDeterministic: no probe verdict depends on goroutine
// timing — each component's search is a function of the component — so the
// recorded trajectory is the same at any parallelism, up to wall time.
func TestRETProbeTrajectoryDeterministic(t *testing.T) {
	inst := clusteredRETInstance(t, 3, 40)
	run := func(parallelism int) []ProbeStep {
		res, err := SolveRET(inst, RETConfig{
			Solver: dantzigOpts(), WarmStart: true, Certificates: true, Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Probes {
			res.Probes[i].DurUS = 0
		}
		return res.Probes
	}
	serial, wide := run(1), run(8)
	if len(serial) == 0 || !reflect.DeepEqual(serial, wide) {
		t.Fatalf("trajectory differs between Parallelism 1 and 8:\n1: %+v\n8: %+v", serial, wide)
	}
}
