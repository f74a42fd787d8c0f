package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
)

func smokeSpec(t *testing.T, name string) spec {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w.smoke()
}

// bodies renders every request body of the trace as sent, in ID order.
func bodies(tr *trace) [][]byte {
	var out [][]byte
	add := func(jobs []submitBody) {
		for _, j := range jobs {
			b, _ := json.Marshal(j)
			out = append(out, b)
		}
	}
	for _, ep := range tr.Epochs {
		add(ep)
	}
	for _, c := range tr.Singles {
		add(c)
	}
	for _, c := range tr.Batches {
		for _, b := range c {
			add(b)
		}
	}
	return out
}

// The seed is the only source of randomness: one seed gives byte-identical
// request bodies, another seed different ones.
func TestTraceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		s := w.smoke()
		gen := func(seed int64) [][]byte {
			tr, err := genTrace(s, seed, warmupEpochs+s.Epochs)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			return bodies(tr)
		}
		a, b, other := gen(1), gen(1), gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different traces", s.Name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same trace", s.Name)
		}
		if len(a) != len(other) {
			t.Errorf("%s: seeds 1 and 2 gave %d and %d jobs", s.Name, len(a), len(other))
		}
	}
}

// The link-event sequence follows from the committed schedules, so it too
// must repeat for a seed.
func TestLinkEventsRepeat(t *testing.T) {
	s := smokeSpec(t, "fault-churn")
	run := func() []string {
		p, err := runPass(runOpts{spec: s, seed: 1, noStorm: true, workdir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if p.failed > 0 {
			t.Fatalf("failures: %v", p.failures)
		}
		return p.linkEvents
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("fault-churn injected no link events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("link events differ between identical runs:\n%v\n%v", a, b)
	}
}

// A tail is only reported when at least ten samples lie beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		q, v := tailPercentile(xs)
		if q != c.want {
			t.Errorf("n=%d: reported p%g, want p%g", c.n, q, c.want)
		}
		if beyond := float64(c.n) * (100 - q) / 100; q != 50 && beyond < 10-1e-6 {
			t.Errorf("n=%d: p%g has only %g samples beyond it", c.n, q, beyond)
		}
		if want := percentile(xs, q); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
	}
}

// Overlapping children — parallel component solves — count once.
func TestSelfTimeUsesTheUnionOfChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "controller.epoch", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "lp.solve", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "lp.solve", Start: 3, End: 6}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "schedule.ret", Start: 8, End: 9},
		{ID: 5, Parent: 4, Name: "lp.solve", Start: 8.5, End: 9},
	}
	tree := newSpanTree(spans)
	if got := tree.selfTime(spans[0]); got != 4 { // 10 − ([1,6] ∪ [8,9]); a sum would give 3
		t.Errorf("self time %g, want 4", got)
	}
	isLP := func(n string) bool { return n == "lp.solve" }
	if got := unionLen(intervalsOf(tree.descendants(spans[0], isLP, nil))); got != 5.5 {
		t.Errorf("lp wall %g, want 5.5", got)
	}
}

// lineSchedule is a correct one-job schedule on 0–1–2 with 2 wavelengths.
func lineSchedule() (*netgraph.Graph, *scheduleDoc, []jobStatus) {
	g := netgraph.Line(3, 2, gbpsPerWave) // edges 0:0→1 1:1→0 2:1→2 3:2→1
	doc := &scheduleDoc{Committed: true, Start: 0, End: 2}
	raw := `{"jobs":[{"job_id":7,"paths":[{"edges":[0,2],"slices":[{"t":1,"len":1,"waves":2},{"t":2,"len":1,"waves":1}]}]}]}`
	if err := json.Unmarshal([]byte(raw), doc); err != nil {
		panic(err)
	}
	jobs := []jobStatus{{JobID: 7, Src: 0, Dst: 2, Size: 3, Start: 1, End: 4, EffectiveEnd: 4, State: "active"}}
	return g, doc, jobs
}

func TestVerifierRejectsBrokenSchedules(t *testing.T) {
	g, doc, jobs := lineSchedule()
	if bad := verifySchedule(g, doc, jobs, nil, false, nil); len(bad) != 0 {
		t.Fatalf("clean schedule rejected: %v", bad)
	}
	for name, c := range map[string]struct {
		breakIt func(doc *scheduleDoc, jobs []jobStatus, down map[int]bool)
		want    string
	}{
		"over capacity": {func(d *scheduleDoc, _ []jobStatus, _ map[int]bool) { d.Jobs[0].Paths[0].Slices[0].Waves = 3 }, "wavelengths"},
		"fractional":    {func(d *scheduleDoc, _ []jobStatus, _ map[int]bool) { d.Jobs[0].Paths[0].Slices[1].Waves = 0.5 }, "whole number"},
		"before window": {func(_ *scheduleDoc, j []jobStatus, _ map[int]bool) { j[0].Start = 1.5 }, "outside window"},
		"after window":  {func(_ *scheduleDoc, j []jobStatus, _ map[int]bool) { j[0].EffectiveEnd = 2.5 }, "outside window"},
		"down link":     {func(_ *scheduleDoc, _ []jobStatus, down map[int]bool) { down[2] = true }, "down link"},
		"broken path":   {func(d *scheduleDoc, _ []jobStatus, _ map[int]bool) { d.Jobs[0].Paths[0].Edges = []int{0, 3} }, "path breaks"},
		"wrong target":  {func(d *scheduleDoc, _ []jobStatus, _ map[int]bool) { d.Jobs[0].Paths[0].Edges = []int{0} }, "path ends"},
		"unknown job":   {func(d *scheduleDoc, _ []jobStatus, _ map[int]bool) { d.Jobs[0].JobID = 8 }, "unknown"},
	} {
		g, doc, jobs := lineSchedule()
		down := map[int]bool{}
		c.breakIt(doc, jobs, down)
		bad := verifySchedule(g, doc, jobs, down, false, nil)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: want a %q violation, got %v", name, c.want, bad)
		}
	}
	// Under RET flow may run past the reported deadline, up to the BMax
	// envelope of the deadline the job entered the epoch with.
	g, doc, jobs = lineSchedule()
	jobs[0].EffectiveEnd = 2
	if bad := verifySchedule(g, doc, jobs, nil, true, map[int]float64{7: 2}); len(bad) != 0 {
		t.Errorf("flow inside the RET envelope rejected: %v", bad)
	}
}

func TestVerifierRejectsBrokenRecords(t *testing.T) {
	sub := []submitBody{{ID: 1, Size: 10, End: 5}, {ID: 2, Size: 4, End: 5}}
	rec := func(id int, delivered float64, completed, met bool, finish float64) controller.Record {
		return controller.Record{Job: job.Job{ID: job.ID(id)}, Delivered: delivered, Completed: completed, MetDeadline: met, FinishTime: finish}
	}
	good := []controller.Record{rec(1, 10, true, true, 4), rec(2, 1, false, false, 5)}
	if bad := verifyRecords(good, sub); len(bad) != 0 {
		t.Fatalf("clean records rejected: %v", bad)
	}
	for name, c := range map[string]struct {
		records []controller.Record
		want    string
	}{
		"missing":        {good[:1], "no record"},
		"duplicate":      {append(good[:2:2], good[0]), "more than one"},
		"over-delivered": {[]controller.Record{rec(1, 11, false, false, 5), good[1]}, "delivered"},
		"short complete": {[]controller.Record{rec(1, 9, true, false, 6), good[1]}, "completed with"},
		"late on time":   {[]controller.Record{rec(1, 10, true, true, 6), good[1]}, "on time"},
		"stranger":       {append(good[:2:2], rec(3, 0, false, false, 0)), "never submitted"},
	} {
		if bad := verifyRecords(c.records, sub); len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: want a %q violation, got %v", name, c.want, bad)
		}
	}
	pending := []jobStatus{{JobID: 1, Size: 10, End: 5, State: "pending"}}
	if bad := verifyPending(pending, sub); len(bad) != 1 {
		t.Errorf("lost pending job not reported once: %v", bad)
	}
}

// Every workload must run end to end at smoke size, untraced and traced,
// with every metric present, every check passing, and quickly — so the
// harness cannot rot uncompiled or drift from the daemon's API.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		res, err := runWorkload(w.smoke(), 1, t.TempDir(), true, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive %s", w.Name, d.Name, v, d.Unit)
			}
		}
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer %s missing or in %q", w.Name, d.Name, v.Unit)
			}
		}
		var rows, total float64
		for _, b := range res.Budget {
			if strings.HasPrefix(b.Row, "epoch_total_s") {
				total = b.Seconds
			} else {
				rows += b.Seconds
			}
		}
		if diff := rows - total; total <= 0 || diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: budget rows sum to %g, traced epoch_total_s is %g", w.Name, rows, total)
		}
	}
	if el, budget := time.Since(start), 5*time.Second*raceSlowdown; el > budget {
		t.Errorf("smoke sizing took %v, want < %v", el, budget)
	}
}

// The scheduler's exact counts must repeat bit for bit.
func TestCountsAreDeterministic(t *testing.T) {
	s := smokeSpec(t, "steady-ret")
	var runs [2]workloadResult
	for i := range runs {
		r, err := runWorkload(s, 1, t.TempDir(), true, true)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		if a, b := runs[0].PerLayer[d.Name].Value, runs[1].PerLayer[d.Name].Value; a != b {
			t.Errorf("%s: %v then %v", d.Name, a, b)
		}
	}
}

func TestCompareValues(t *testing.T) {
	for _, c := range []struct {
		a, b    float64
		better  string
		want    string
		wantPct float64
	}{
		{10, 11, "lower", "within", 0.1},
		{10, 12, "lower", "outside", 0.2},
		{10, 8, "lower", "better", -0.2},
		{10, 8, "higher", "outside", -0.2},
		{10, 12, "higher", "better", 0.2},
		{0, 5, "lower", "within", 0},
	} {
		diff, got := compareValues(c.a, c.b, c.better, 0.15)
		if got != c.want || diff < c.wantPct-1e-12 || diff > c.wantPct+1e-12 {
			t.Errorf("%g→%g (%s): %s %+g, want %s %+g", c.a, c.b, c.better, got, diff, c.want, c.wantPct)
		}
	}
}

// README.md's glossary must name every metric the benchmark reports.
func TestReadmeNamesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if !bytes.Contains(readme, []byte("| `"+d.Name+"` |")) {
			t.Errorf("README.md does not document %s", d.Name)
		}
	}
	if !bytes.Contains(readme, []byte(perLayerGlossary())) {
		t.Error("README.md's per-layer table is stale: paste `go run ./bench -glossary` over it")
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("**"+w.Name+"**")) {
			t.Errorf("README.md has no paragraph for workload %s", w.Name)
		}
	}
}

// BENCHMARK.json is the contract the benchmark driver reads; it must say
// what the tables here say.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var described bytes.Buffer
	if err := describeBenchmark(&described); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, described.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./bench -describe > BENCHMARK.json`")
	}
}
