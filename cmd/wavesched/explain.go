package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/metrics"
	"wavesched/internal/sim"
	"wavesched/internal/telemetry"
)

// explainOptions collects the `wavesched explain` flags.
type explainOptions struct {
	NetPath   string
	JobsPath  string
	Gen       int
	GenSeed   int64
	JobID     int
	Slices    int
	SliceLen  float64
	Tau       float64
	K         int
	Alpha     float64
	BMax      float64
	Policy    string
	MaxTime   float64
	JSON      bool
	TracePath string
}

// parseExplainFlags parses the explain subcommand's argument list.
func parseExplainFlags(args []string) (explainOptions, error) {
	var o explainOptions
	fs := flag.NewFlagSet("wavesched explain", flag.ContinueOnError)
	fs.StringVar(&o.NetPath, "net", "", "network JSON (required)")
	fs.StringVar(&o.JobsPath, "jobs", "", "jobs JSON")
	fs.IntVar(&o.Gen, "gen", 0, "generate this many random jobs instead of -jobs")
	fs.Int64Var(&o.GenSeed, "gen-seed", 1, "workload seed for -gen")
	fs.IntVar(&o.JobID, "job", -1, "job ID to explain (required)")
	fs.IntVar(&o.Slices, "slices", 10, "horizon length in slices (workload generation)")
	fs.Float64Var(&o.SliceLen, "slice-len", 1, "slice duration")
	fs.Float64Var(&o.Tau, "tau", 2, "scheduling period (multiple of -slice-len)")
	fs.IntVar(&o.K, "k", 4, "allowed paths per job")
	fs.Float64Var(&o.Alpha, "alpha", 0.1, "stage-2 fairness slack")
	fs.Float64Var(&o.BMax, "bmax", 5, "RET extension ceiling")
	fs.StringVar(&o.Policy, "policy", "maxthroughput", "controller policy: maxthroughput, ret, or reject")
	fs.Float64Var(&o.MaxTime, "max-time", 0, "stop the replay at this virtual time (0 = run until drained)")
	fs.BoolVar(&o.JSON, "json", false, "emit the explanation in the /v1/jobs/{id}/explain wire format")
	fs.StringVar(&o.TracePath, "trace", "", "also write the replay's trace spans (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.NetPath == "" {
		return o, fmt.Errorf("explain: -net is required")
	}
	if o.JobID < 0 {
		return o, fmt.Errorf("explain: -job is required")
	}
	if err := checkSolverFlags(o.K, o.Alpha, o.BMax); err != nil {
		return o, fmt.Errorf("explain: %w", err)
	}
	return o, nil
}

// runExplain replays the scenario through a fresh periodic controller —
// the controller's decisions are deterministic, so this reproduces the
// decision history exactly — and writes one job's explanation to w.
func runExplain(w io.Writer, o explainOptions) error {
	policy, err := parsePolicy(o.Policy)
	if err != nil {
		return err
	}
	g := loadGraph(o.NetPath)
	jobs := loadJobs(g, o.JobsPath, o.Gen, o.GenSeed, o.Slices, o.SliceLen)
	ctrl, err := controller.New(g, controller.Config{
		Tau: o.Tau, SliceLen: o.SliceLen, K: o.K, Alpha: o.Alpha, BMax: o.BMax,
		Policy: policy, Solver: lpOptions(), Tracer: tracer,
		WarmStart: true,
	})
	if err != nil {
		return err
	}
	if _, err := sim.Run(ctrl, jobs, o.MaxTime); err != nil {
		return err
	}
	exp, ok := ctrl.Explain(job.ID(o.JobID))
	if !ok {
		return fmt.Errorf("explain: job %d never reached the controller (IDs: %s)", o.JobID, idRange(jobs))
	}
	if o.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(exp.JSON())
	}
	fmt.Fprintf(w, "job %d: %d decision events\n\n", o.JobID, len(exp.Events))
	t := metrics.NewTable("decision history", "seq", "epoch", "t", "kind", "component", "bhat", "b", "detail")
	for _, ev := range exp.Events {
		comp, bhat, b := "-", "-", "-"
		if ev.Component != "" {
			comp = ev.Component
		}
		if ev.BHat != 0 {
			bhat = fmt.Sprintf("%.3f", ev.BHat)
		}
		if ev.B != 0 {
			b = fmt.Sprintf("%.3f", ev.B)
		}
		t.AddRow(
			fmt.Sprintf("%d", ev.Seq),
			fmt.Sprintf("%d", ev.Epoch),
			fmt.Sprintf("%.2f", ev.Time),
			ev.Kind, comp, bhat, b, ev.Detail,
		)
	}
	return t.Render(w)
}

// idRange summarizes the workload's job IDs for the not-found error.
func idRange(jobs []job.Job) string {
	if len(jobs) == 0 {
		return "none"
	}
	lo, hi := jobs[0].ID, jobs[0].ID
	for _, j := range jobs[1:] {
		if j.ID < lo {
			lo = j.ID
		}
		if j.ID > hi {
			hi = j.ID
		}
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}

// explainMain is the `wavesched explain` entry point: it replays a
// scenario and prints the decision history of one job — every admission
// verdict, component assignment, probe bound, and final outcome the
// scheduler produced for it.
func explainMain(args []string) {
	o, err := parseExplainFlags(args)
	if err != nil {
		fatal("%v", err)
	}
	if o.TracePath != "" {
		tr, err := telemetry.OpenTraceFile(o.TracePath)
		if err != nil {
			fatal("%v", err)
		}
		defer func() {
			if err := tr.Close(); err != nil {
				slog.Warn("closing trace file", "err", err)
			}
		}()
		tracer = tr
	}
	if err := runExplain(os.Stdout, o); err != nil {
		fatal("%v", err)
	}
}

// traceconvMain is the `wavesched traceconv` entry point: it converts a
// JSONL trace file (written with -trace) to Chrome trace_event JSON
// loadable in chrome://tracing or ui.perfetto.dev.
func traceconvMain(args []string) {
	fs := flag.NewFlagSet("wavesched traceconv", flag.ContinueOnError)
	in := fs.String("in", "", "JSONL trace file written with -trace (required)")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		fatal("%v", err)
	}
	if *in == "" {
		fatal("traceconv: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	var w io.Writer = os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer func() {
			if err := of.Close(); err != nil {
				fatal("%v", err)
			}
		}()
		w = of
	}
	if err := telemetry.WriteChromeTrace(f, w); err != nil {
		fatal("traceconv: %v", err)
	}
}
