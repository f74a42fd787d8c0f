package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/sim"
)

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"maxthroughput", "ret", "reject"} {
		if _, err := parsePolicy(s); err != nil {
			t.Errorf("parsePolicy(%q): %v", s, err)
		}
	}
	if _, err := parsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestLoadFailures(t *testing.T) {
	g := netgraph.Line(2, 2, 10)

	// No trace and no MTBF: no failures.
	evs, err := loadFailures(g, simOptions{})
	if err != nil || evs != nil {
		t.Errorf("loadFailures(off) = %v, %v; want nil, nil", evs, err)
	}

	// Generated failures need -max-time.
	if _, err := loadFailures(g, simOptions{MTBF: 10, MTTR: 1}); err == nil {
		t.Error("generated failures without -max-time accepted")
	}
	evs, err = loadFailures(g, simOptions{MTBF: 3, MTTR: 1, FailSeed: 5, MaxTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Error("MTBF 3 over 50 time units generated no failures")
	}

	// Trace file path, including edge-range validation.
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteLinkTrace(f, []sim.LinkEvent{{Time: 1, Edge: 0}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	evs, err = loadFailures(g, simOptions{FailTrace: path})
	if err != nil || len(evs) != 1 {
		t.Errorf("loadFailures(trace) = %v, %v; want one event", evs, err)
	}

	bad := filepath.Join(dir, "bad.json")
	f, err = os.Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteLinkTrace(f, []sim.LinkEvent{{Time: 1, Edge: 99}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := loadFailures(g, simOptions{FailTrace: bad}); err == nil {
		t.Error("trace with out-of-range edge accepted")
	}
}

func TestRunSimWithFailureTrace(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4},
		{ID: 2, Arrival: 4.5, Src: 0, Dst: 1, Size: 2, Start: 4.5, End: 10},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.WriteLinkTrace(f, []sim.LinkEvent{
		{Time: 1.5, Edge: 0, Up: false},
		{Time: 3.5, Edge: 0, Up: true},
	})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = runSim(&out, g, jobs, simOptions{
		Tau: 1, SliceLen: 1, K: 2, Policy: "maxthroughput", FailTrace: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"2 link events", "1 dropped by failures", "disruption report", "dropped"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunSimExplainsADisruption: -explain replays the very run -algo sim
// makes, failure trace included, so the history of a job the trace drops
// shows the disruption the -json report lists for it.
func TestRunSimExplainsADisruption(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	dir := t.TempDir()
	jobsPath := filepath.Join(dir, "jobs.json")
	tracePath := filepath.Join(dir, "trace.json")
	writeFile := func(path string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(jobsPath, func(f *os.File) error {
		return job.WriteJSON(f, []job.Job{
			{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4},
			{ID: 2, Arrival: 4.5, Src: 0, Dst: 1, Size: 2, Start: 4.5, End: 10},
		})
	})
	writeFile(tracePath, func(f *os.File) error {
		return sim.WriteLinkTrace(f, []sim.LinkEvent{{Time: 1.5, Edge: 0}, {Time: 3.5, Edge: 0, Up: true}})
	})
	run := func(extra ...string) []byte {
		args := append([]string{"-net", writeNetFixture(t, g), "-jobs", jobsPath, "-algo", "sim",
			"-tau", "1", "-k", "2", "-fail-trace", tracePath, "-json"}, extra...)
		o, err := parseMainFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		net := loadGraph(o.NetPath)
		var out bytes.Buffer
		if err := runSim(&out, net, loadJobs(net, o.JobsPath, o.Gen, o.GenSeed, o.Slices, o.SliceLen), o.simOptions); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	var report struct {
		Disruptions []controller.DisruptionJSON `json:"disruptions"`
	}
	if err := json.Unmarshal(run(), &report); err != nil {
		t.Fatal(err)
	}
	var exp controller.ExplanationJSON
	if err := json.Unmarshal(run("-explain", "1"), &exp); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, d := range report.Disruptions {
		if d.JobID == 1 {
			want = append(want, fmt.Sprintf("t=%g link %d failed: %s", d.Time, d.Edge, d.Outcome))
		}
	}
	for _, ev := range exp.Events {
		if ev.Kind == controller.AuditDisrupted {
			got = append(got, fmt.Sprintf("t=%g %s", ev.Time, ev.Detail))
		}
	}
	if len(want) == 0 {
		t.Fatal("the trace disrupted nothing; test is vacuous")
	}
	if exp.JobID != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("job %d explained disruptions %q, the sim report lists %q", exp.JobID, got, want)
	}
}

func TestRunSimNoFailures(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}}
	var out bytes.Buffer
	if err := runSim(&out, g, jobs, simOptions{
		Tau: 2, SliceLen: 1, K: 2, Policy: "maxthroughput",
	}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "1 completed") || strings.Contains(got, "disruption report") {
		t.Errorf("unexpected no-failure output:\n%s", got)
	}
}
