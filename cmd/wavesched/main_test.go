package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/sim"
	"wavesched/internal/telemetry"
	"wavesched/internal/telemetry/telhttp"
	"wavesched/internal/timeslice"
)

// quickstartJobs mirrors the README quickstart scenario.
func quickstartJobs() []job.Job {
	return []job.Job{
		{ID: 1, Src: 0, Dst: 3, Size: 12, Start: 0, End: 6},
		{ID: 2, Src: 1, Dst: 4, Size: 8, Start: 2, End: 8},
	}
}

// runQuickstart exercises the full pipeline (stage 1, stage 2, LPDAR, and
// a controller+sim run) so every instrumented layer registers and updates
// its metrics on the default registry.
func runQuickstart(t *testing.T, tracer *telemetry.Tracer) {
	t.Helper()
	g := netgraph.Ring(6, 4, 5)
	grid, err := timeslice.Uniform(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := schedule.NewInstance(g, grid, quickstartJobs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.MaxThroughput(inst, schedule.Config{
		Alpha: 0.1, AlphaGrowth: 0.1, Solver: lp.Options{Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ZStar <= 0 {
		t.Fatalf("ZStar = %g", res.ZStar)
	}
	ctrl, err := controller.New(g, controller.Config{
		Tau: 2, SliceLen: 1, K: 4, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(ctrl, quickstartJobs(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestSolverFlagsRejectedOutOfRange: the check the top-level command runs
// on -k, -alpha and -bmax, and the explain subcommand through it, refuse a
// value a solver layer would otherwise replace with its default, naming the
// flag. The serve subcommand's half is in TestParseServeFlags.
func TestSolverFlagsRejectedOutOfRange(t *testing.T) {
	for _, bad := range badSolverFlags {
		// The top-level command's flags, as main registers them.
		fs := flag.NewFlagSet("wavesched", flag.ContinueOnError)
		k := fs.Int("k", 4, "")
		alpha := fs.Float64("alpha", 0.1, "")
		bmax := fs.Float64("bmax", 5, "")
		if err := fs.Parse([]string{bad.flag, bad.value}); err != nil {
			t.Fatal(err)
		}
		if err := checkSolverFlags(*k, *alpha, *bmax); err == nil || !strings.Contains(err.Error(), bad.flag) {
			t.Errorf("wavesched %s %s: error %v, want one naming the flag", bad.flag, bad.value, err)
		}
		_, err := parseExplainFlags([]string{"-net", "x.json", "-job", "1", bad.flag, bad.value})
		if err == nil || !strings.Contains(err.Error(), bad.flag) {
			t.Errorf("explain %s %s: error %v, want one naming the flag", bad.flag, bad.value, err)
		}
	}
	if err := checkSolverFlags(1, 1, 0.5); err != nil {
		t.Errorf("in-range edge values rejected: %v", err)
	}
	if _, err := parseExplainFlags([]string{"-net", "x.json", "-job", "1"}); err != nil {
		t.Errorf("explain defaults rejected: %v", err)
	}
}

// TestMetricsEndpoint is the acceptance check for --metrics-addr: after a
// quickstart-sized run, the handler behind the flag serves Prometheus
// text format including the headline series from every layer.
func TestMetricsEndpoint(t *testing.T) {
	runQuickstart(t, nil)

	srv := httptest.NewServer(telhttp.Handler(telemetry.Default()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE lp_solve_seconds histogram",
		"lp_solve_seconds_count",
		"lp_pivots_total",
		"lp_phase1_pivots_total",
		"# TYPE controller_epoch_seconds histogram",
		"controller_epoch_seconds_count",
		"controller_jobs_admitted_total",
		"lpdar_adjustments_total",
		"schedule_stage1_zstar",
		"sim_event_queue_depth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}

	// pprof rides on the same mux.
	pr, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: %s", pr.Status)
	}
}

// TestTraceProducesParseableJSONL is the acceptance check for --trace: a
// quickstart-sized run must emit JSONL spans that parse line by line and
// include the solver and controller span names.
func TestTraceProducesParseableJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := telemetry.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runQuickstart(t, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has %d lines, expected several spans", len(lines))
	}
	names := map[string]bool{}
	for i, line := range lines {
		var rec struct {
			TS   string `json:"ts"`
			Kind string `json:"kind"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not parseable JSON: %v\n%s", i+1, err, line)
		}
		if rec.TS == "" || rec.Kind == "" || rec.Name == "" {
			t.Fatalf("line %d missing ts/kind/name: %s", i+1, line)
		}
		names[rec.Name] = true
	}
	for _, want := range []string{"lp.solve", "controller.epoch", "schedule.stage1"} {
		if !names[want] {
			t.Errorf("trace missing %q spans (saw %v)", want, names)
		}
	}
}

func TestSetupLogging(t *testing.T) {
	for _, lvl := range []string{"debug", "info", "warn", "error", "WARN"} {
		if err := setupLogging(lvl); err != nil {
			t.Errorf("setupLogging(%q): %v", lvl, err)
		}
	}
	if err := setupLogging("verbose"); err == nil {
		t.Error("setupLogging should reject unknown levels")
	}
}
