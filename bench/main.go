// Command bench is the repository's end-to-end benchmark: it drives an
// in-process `wavesched serve` daemon over HTTP through whole scheduling
// epochs — submit → admission drain → WAL fsync → instance build → LP
// solves → LPDAR → commit → /v1/schedule readable — on five seeded
// workloads, checks every output, and reports the end-to-end metrics
// (untraced pass) and a per-layer breakdown with an epoch budget (traced
// pass plus a cold layer replay). See README.md.
//
//	go run ./bench -seed 1                       all workloads, both passes
//	go run ./bench -seed 1 -workload steady-ret  one workload
//	go run ./bench -seed 1 -traced=false -out a.json
//	go run ./bench -compare a.json b.json        repeatability / regression table
//	go run ./bench -check                        count-determinism self-check
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                             one run, result JSON on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wavesched/internal/telemetry"
)

// workloadResult is one workload's section of a report.
type workloadResult struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Budget    []budgetRow      `json:"budget,omitempty"`
	// PassEpochS[i][e] is measured epoch e's Tick()→schedule-read time in
	// pass i of the untraced run, for looking into a spread.
	PassEpochS [][]float64 `json:"pass_epoch_s,omitempty"`
}

// report is what `go run ./bench` prints and -compare reads.
type report struct {
	Seed    int64            `json:"seed"`
	Seconds float64          `json:"seconds"`
	Results []workloadResult `json:"results"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "the only source of randomness; seed 2 is held out for later claims")
		seconds  = flag.Float64("seconds", referenceSeconds, "measuring time of an untraced run: scales the epoch counts, and no pass but the last starts after it")
		trace    = flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
		traced   = flag.Bool("traced", true, "also run the traced pass and the layer replay for the per-layer metrics and budget")
		out      = flag.String("out", "", "also write the report JSON to this file")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments against BENCHMARK.json's bounds")
		check    = flag.Bool("check", false, "run the count-determinism self-check and exit")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the workload and metric tables define it, and exit")
		glossary = flag.Bool("glossary", false, "print README.md's per-layer metric table, and exit")
		smoke    = flag.Bool("smoke", false, "shrink every workload to a tiny graph and 4 ticks")
		workdir  = flag.String("workdir", filepath.Join("bench", "out"), "directory for WAL scratch space and trace artefacts")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: go run ./bench -compare a.json b.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *check:
		os.Exit(runCheck(*workdir))
	case *describe:
		if err := describeBenchmark(os.Stdout); err != nil {
			fatal("describe: %v", err)
		}
		return
	case *glossary:
		fmt.Print(perLayerGlossary())
		return
	}

	specs := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		specs = []spec{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal("workdir: %v", err)
	}

	driver := *trace >= 0
	if driver {
		if len(specs) != 1 {
			fatal("--trace needs --workload")
		}
		// The benchmark driver gives one run 180 s: die loudly, not hang.
		time.AfterFunc(170*time.Second, func() { fatal("run exceeded 170 s") })
	}
	e2e := !driver || *trace == 0
	layers := *trace == 1 || (!driver && *traced)
	rep := report{Seed: *seed, Seconds: *seconds}
	failed := false
	for _, s := range specs {
		s = s.scaled(*seconds)
		if *smoke {
			s = s.smoke()
		}
		res, err := runWorkload(s, *seed, *workdir, e2e, layers)
		if err != nil {
			fatal("%s: %v", s.Name, err)
		}
		printResult(res)
		rep.Results = append(rep.Results, res)
		failed = failed || !res.Correct
	}
	if *out != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *out, err)
		}
	}
	if driver {
		res := rep.Results[0]
		m := res.EndToEnd
		if *trace == 1 {
			m = res.PerLayer
		}
		type contractValue struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		metrics := make(map[string]contractValue, len(m))
		for k, v := range m {
			metrics[k] = contractValue{v.Value, v.Unit}
		}
		line, _ := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// tracedPasses is how many times a run repeats the traced pass — and, when
// it reports layers alone, the untraced reference pass — so that tracing
// overhead compares every epoch's shortest traced time with its shortest
// untraced time rather than one noisy pass with another.
const tracedPasses = 2

// repeatPasses runs the same pass on a fresh daemon each time, until the
// run's measuring time is up or n passes are done, and three times at least.
// Only the last pass goes on past the measured epochs to drain, storm, final
// accounting and restart, so whether a pass is the last is settled before it
// starts: it is the first to start after the time is up. A slow host thus
// costs a run passes, not the driver's time limit.
func repeatPasses(o runOpts, n int, total *ops) ([]*pass, error) {
	limit := time.Duration(o.spec.Seconds * float64(time.Second))
	start := time.Now()
	var passes []*pass
	for last := false; !last; {
		i := len(passes)
		last = i == n-1 || (limit > 0 && i >= 2 && time.Since(start) > limit)
		o.timingOnly = !last
		p, err := runPass(o)
		if err != nil {
			return nil, err
		}
		total.merge(p.ops)
		passes = append(passes, p)
	}
	return passes, nil
}

// runWorkload runs the untraced passes and, when layers is set, the traced
// passes and the layer replay. End-to-end numbers only ever come from full
// untraced passes; a run that reports layers alone still makes untraced
// reference passes — the first half of the epochs, no storm — because
// tracing overhead is the ratio of traced to untraced time over the epochs
// both ran.
func runWorkload(s spec, seed int64, workdir string, e2e, layers bool) (workloadResult, error) {
	res := workloadResult{Workload: s.Name}
	ref := runOpts{spec: s, seed: seed, workdir: workdir}
	n := s.Passes
	if !e2e {
		ref.noStorm = true
		ref.spec.Epochs = (s.Epochs + 1) / 2
		n = tracedPasses
	}
	var total ops
	ups, err := repeatPasses(ref, n, &total)
	if err != nil {
		return res, err
	}
	if e2e {
		res.EndToEnd = endToEndOf(ups)
		res.PassEpochS = make([][]float64, len(ups))
		for i, p := range ups {
			for _, e := range p.epochs {
				res.PassEpochS[i] = append(res.PassEpochS[i], e.readEnd-e.tickStart)
			}
		}
	}
	if layers {
		tps, err := repeatPasses(runOpts{spec: s, seed: seed, workdir: workdir, traced: true}, tracedPasses, &total)
		if err != nil {
			return res, err
		}
		tp := tps[len(tps)-1]
		lt, errs := replayLayers(tp)
		total.attempted += lt.samples
		for _, e := range errs {
			total.fail(e)
		}
		// Like for like: the shortest of many untraced passes would read
		// below the shortest of two traced ones with tracing free.
		ref := ups[max(0, len(ups)-tracedPasses):]
		res.PerLayer, res.Budget = perLayerOf(tp, traceOverhead(bestEpochS(tps), bestEpochS(ref)), lt)
		if err := writeTrace(workdir, s.Name, tp.traceRaw); err != nil {
			return res, err
		}
	}
	res.Attempted, res.Failed, res.Failures = total.attempted, total.failed, total.failures
	res.Correct = res.Failed == 0
	return res, nil
}

// writeTrace leaves the traced pass's spans next to the run: the raw JSONL
// and a Chrome trace_event export (open in chrome://tracing or Perfetto).
func writeTrace(workdir, name string, jsonl []byte) error {
	raw := filepath.Join(workdir, name+".trace.jsonl")
	if err := os.WriteFile(raw, jsonl, 0o644); err != nil {
		return err
	}
	in, err := os.Open(raw)
	if err != nil {
		return err
	}
	defer in.Close()
	chrome, err := os.Create(filepath.Join(workdir, name+".trace.chrome.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(in, chrome); err != nil {
		chrome.Close()
		return err
	}
	return chrome.Close()
}

// printResult writes one workload's metrics by name with unit and sample
// count, then its budget.
func printResult(r workloadResult) {
	fmt.Printf("== %s  correct=%v attempted=%d failed=%d ops_failed_frac=%g\n",
		r.Workload, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Printf("   FAIL %s\n", f)
	}
	show := func(defs []metricDef, m map[string]value) {
		for _, d := range defs {
			v, ok := m[d.Name]
			if !ok {
				continue
			}
			n := ""
			if v.Samples > 0 {
				n = fmt.Sprintf("  (n=%d)", v.Samples)
			}
			fmt.Printf("   %-34s %14.6g %-7s%s\n", d.Name, v.Value, v.Unit, n)
		}
	}
	show(endToEnd, r.EndToEnd)
	show(perLayer, r.PerLayer)
	if len(r.Budget) > 0 {
		fmt.Printf("   budget:")
		for _, b := range r.Budget {
			fmt.Printf("  %s=%.4gs", b.Row, math.Round(b.Seconds*1e9)/1e9)
		}
		fmt.Println()
	}
}

// runCheck is the count-determinism self-check: two in-process runs of
// the same smoke workload and seed must agree bit for bit on the counts
// the benchmark calls exact.
func runCheck(workdir string) int {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fatal("workdir: %v", err)
	}
	code := 0
	for _, name := range []string{"steady-enum", "steady-ret"} {
		w, _ := findWorkload(name)
		var runs [2]workloadResult
		for i := range runs {
			r, err := runWorkload(w.smoke(), 1, workdir, true, true)
			if err != nil {
				fatal("%s: %v", name, err)
			}
			runs[i] = r
		}
		for _, m := range []string{"lp.pivots", "controller.admitted"} {
			a, b := runs[0].PerLayer[m].Value, runs[1].PerLayer[m].Value
			code |= reportEqual(name, m, a, b)
		}
		for _, m := range []string{"delivered_frac", "deadline_met_frac"} {
			a, b := runs[0].EndToEnd[m].Value, runs[1].EndToEnd[m].Value
			code |= reportEqual(name, m, a, b)
		}
	}
	return code
}

func reportEqual(workload, metric string, a, b float64) int {
	if a == b {
		fmt.Printf("ok    %-12s %-20s %v\n", workload, metric, a)
		return 0
	}
	fmt.Printf("DIFF  %-12s %-20s %v vs %v\n", workload, metric, a, b)
	return 1
}

// compareValues returns b's relative difference against a and a
// direction-aware verdict: "outside" when b is worse than a by more than
// the bound, "better" when it is better by more than the bound, "within"
// otherwise.
func compareValues(a, b float64, better string, bound float64) (diff float64, verdict string) {
	if a != 0 {
		diff = (b - a) / a
	}
	worse := diff
	if better == "higher" {
		worse = -diff
	}
	switch {
	case worse > bound:
		return diff, "outside"
	case worse < -bound:
		return diff, "better"
	}
	return diff, "within"
}

// describeBenchmark writes the BENCHMARK.json contract document from the
// tables in workloads.go and metrics.go; a test keeps the committed file
// equal to it.
func describeBenchmark(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: referenceSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// perLayerGlossary renders the per-layer table of README.md from the
// metric definitions; a test keeps the README equal to it.
func perLayerGlossary() string {
	var b strings.Builder
	b.WriteString("| metric | unit | better | exact | how it is measured | should move |\n|---|---|---|---|---|---|\n")
	for _, d := range perLayer {
		exact := ""
		if d.Exact {
			exact = "yes"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, exact, d.how(), d.Moves)
	}
	return b.String()
}

// benchmarkFile is the subset of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare prints, per workload × end-to-end metric, both values, the
// relative difference of b against a, the metric's bound, and a verdict:
// within the bound, outside it (worse by more than the bound), or better
// by more than the bound. It exits non-zero on any outside.
func runCompare(pathA, pathB string) int {
	load := func(path string) report {
		var r report
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &r)
		}
		if err != nil {
			fatal("%s: %v", path, err)
		}
		return r
	}
	a, b := load(pathA), load(pathB)
	var bf benchmarkFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fatal("BENCHMARK.json: %v", err)
	}
	byName := make(map[string]workloadResult)
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	code := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, d := range bf.EndToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			diff, verdict := compareValues(va, vb, d.Better, d.Bound)
			if verdict == "outside" {
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				ra.Workload, d.Name, va, vb, diff*100, d.Bound*100, verdict)
		}
	}
	return code
}
