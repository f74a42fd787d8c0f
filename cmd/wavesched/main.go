// Command wavesched runs the paper's scheduling algorithms on a scenario:
// a network topology (JSON from netgen) plus a job list (JSON array).
//
// Usage:
//
//	wavesched -net net.json -jobs jobs.json -algo maxthroughput -slices 10
//	wavesched -net net.json -jobs jobs.json -algo ret -bmax 5
//	wavesched -net net.json -gen 20 -gen-seed 7 -algo maxthroughput
//	wavesched -net net.json -gen 20 -algo sim -tau 2 -mtbf 50 -mttr 4 -max-time 100
//	wavesched -net net.json -gen 20 -algo sim -policy ret -explain 3
//	wavesched serve -net net.json -addr :8080 -tau 2s -wal /var/lib/wavesched
//	wavesched traceconv -in run.jsonl -out run.chrome.json
//
// With -gen N a random workload of N jobs is generated instead of -jobs.
// The tool prints Z*, per-job throughputs, and the integer LPDAR schedule
// summary; -verbose dumps the per-slice wavelength assignments.
//
// The serve subcommand runs the scheduler as a long-lived daemon: an
// HTTP JSON job API, a wall-clock epoch loop, and (with -wal) a durable
// event log replayed on restart. See DESIGN.md §9. -algo sim accepts
// -json to emit the run result in the daemon's wire format.
//
// -algo sim drives the periodic controller (period -tau, policy -policy)
// over the workload. Link failures can be injected from a JSON trace
// (-fail-trace) or drawn from a seeded per-link exponential MTBF/MTTR
// process (-mtbf/-mttr/-fail-seed, bounded by -max-time); the run ends
// with a per-job disruption report. With -explain ID the run prints
// instead that job's decision history (admission verdict, component
// membership, probe bounds, disruptions, final outcome); the controller is
// deterministic, so the history is the one any run of the same flags made.
// The traceconv subcommand converts a -trace JSONL file to Chrome
// trace_event JSON for chrome://tracing or Perfetto. See DESIGN.md §11.
//
// Observability flags:
//
//	-metrics-addr :9090   serve Prometheus text-format metrics on
//	                      /metrics and net/http/pprof on /debug/pprof/
//	-trace run.jsonl      write solver/scheduler spans as JSON Lines
//	-log-level debug      structured (log/slog) logging level
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/metrics"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/telemetry/telhttp"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

// tracer is the process-wide trace sink; nil (the default) disables
// span tracing throughout the solver and scheduler layers.
var tracer *telemetry.Tracer

func main() {
	// Subcommand dispatch before flag parsing: serve and traceconv each
	// carry their own flag set.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "traceconv":
			traceconvMain(os.Args[2:])
			return
		}
	}
	o, err := parseMainFlags(os.Args[1:])
	if err != nil {
		fatal("%v", err)
	}
	if err := setupLogging(o.LogLevel); err != nil {
		fatal("%v", err)
	}
	if o.MetricsAddr != "" {
		_, addr, err := telhttp.ListenAndServe(o.MetricsAddr, telemetry.Default())
		if err != nil {
			fatal("%v", err)
		}
		slog.Info("telemetry endpoint up", "addr", addr.String(),
			"metrics", "/metrics", "pprof", "/debug/pprof/")
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
		slog.Info("tracing enabled", "file", o.TracePath)
	}

	g := loadGraph(o.NetPath)
	jobs := loadJobs(g, o.JobsPath, o.Gen, o.GenSeed, o.Slices, o.SliceLen)

	if !(o.Algo == "sim" && (o.JSON || o.Explain != nil)) { // keep stdout to what was asked for
		fmt.Printf("network %q: %d nodes, %d directed edges, %d wavelengths/link\n",
			g.Name, g.NumNodes(), g.NumEdges(), g.Edge(0).Wavelengths)
		fmt.Printf("jobs: %d, total demand %.2f wavelength-slices\n\n", len(jobs), totalSize(jobs))
	}

	switch o.Algo {
	case "maxthroughput":
		runMaxThroughput(g, jobs, o.Slices, o.SliceLen, o.K, o.Alpha, o.ColumnGen, o.Verbose)
	case "ret":
		runRET(g, jobs, o.SliceLen, o.K, o.BMax, o.ColumnGen, o.Verbose)
	case "admit":
		runAdmit(g, jobs, o.Slices, o.SliceLen, o.K)
	case "sim":
		if err := runSim(os.Stdout, g, jobs, o.simOptions); err != nil {
			fatal("%v", err)
		}
	}
}

// mainOptions collects the top-level command's flags; the -algo sim ones
// are its simOptions.
type mainOptions struct {
	simOptions
	NetPath  string
	JobsPath string
	Gen      int
	GenSeed  int64
	Algo     string
	Slices   int
	Verbose  bool

	MetricsAddr string
	TracePath   string
	LogLevel    string
}

// parseMainFlags parses the top-level command's argument list.
func parseMainFlags(args []string) (mainOptions, error) {
	var o mainOptions
	fs := flag.NewFlagSet("wavesched", flag.ContinueOnError)
	fs.StringVar(&o.NetPath, "net", "", "network JSON (required)")
	fs.StringVar(&o.JobsPath, "jobs", "", "jobs JSON")
	fs.IntVar(&o.Gen, "gen", 0, "generate this many random jobs instead of -jobs")
	fs.Int64Var(&o.GenSeed, "gen-seed", 1, "workload seed for -gen")
	fs.StringVar(&o.Algo, "algo", "maxthroughput", "algorithm: maxthroughput, ret, admit, or sim")
	fs.IntVar(&o.Slices, "slices", 10, "horizon length in slices")
	fs.Float64Var(&o.SliceLen, "slice-len", 1, "slice duration")
	fs.IntVar(&o.K, "k", 4, "allowed paths per job")
	fs.Float64Var(&o.Alpha, "alpha", 0.1, "stage-2 fairness slack")
	fs.Float64Var(&o.BMax, "bmax", 5, "RET extension ceiling")
	fs.BoolVar(&o.ColumnGen, "colgen", false, "price path columns on demand (column generation) instead of enumerating -k paths upfront")
	fs.BoolVar(&o.Verbose, "verbose", false, "dump per-slice assignments")
	fs.BoolVar(&o.JSON, "json", false, "emit the -algo sim result (or the -explain history) as JSON instead of text")

	fs.Float64Var(&o.Tau, "tau", 2, "scheduling period for -algo sim (multiple of -slice-len)")
	fs.StringVar(&o.Policy, "policy", "maxthroughput", "controller policy for -algo sim: maxthroughput, ret, or reject")
	fs.Float64Var(&o.MaxTime, "max-time", 0, "stop the simulation at this virtual time (0 = run until drained)")
	fs.StringVar(&o.FailTrace, "fail-trace", "", "JSON link failure/repair trace to inject (-algo sim)")
	fs.Float64Var(&o.MTBF, "mtbf", 0, "generate link failures with this mean time between failures (0 = off; -algo sim)")
	fs.Float64Var(&o.MTTR, "mttr", 1, "mean time to repair for generated failures (-algo sim)")
	fs.Int64Var(&o.FailSeed, "fail-seed", 1, "seed for the generated failure process (-algo sim)")
	fs.Func("explain", "print this job's decision history instead of the -algo sim report", func(v string) error {
		id, err := strconv.Atoi(v)
		jid := job.ID(id)
		o.Explain = &jid
		return err
	})

	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "serve /metrics (Prometheus) and /debug/pprof on this address, e.g. :9090")
	fs.StringVar(&o.TracePath, "trace", "", "write solver/scheduler trace events (JSONL) to this file")
	fs.StringVar(&o.LogLevel, "log-level", "info", "log level: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.NetPath == "" {
		return o, fmt.Errorf("-net is required")
	}
	switch o.Algo {
	case "maxthroughput", "ret", "admit", "sim":
	default:
		return o, fmt.Errorf("unknown -algo %q (want maxthroughput, ret, admit, or sim)", o.Algo)
	}
	if _, err := parsePolicy(o.Policy); err != nil {
		return o, err
	}
	if err := checkSolverFlags(o.K, o.Alpha, o.BMax); err != nil {
		return o, err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-max-time", o.MaxTime}, {"-mtbf", o.MTBF}, {"-mttr", o.MTTR}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return o, fmt.Errorf("%s must be finite, got %g", f.name, f.v)
		}
	}
	if o.Explain != nil && o.Algo != "sim" {
		return o, fmt.Errorf("-explain needs -algo sim")
	}
	return o, nil
}

// runAdmit demonstrates the paper's action (i): reject-based admission
// control by arrival order with binary search on the feasible prefix.
func runAdmit(g *netgraph.Graph, jobs []job.Job, slices int, sliceLen float64, k int) {
	grid, err := timeslice.Uniform(0, sliceLen, slices)
	if err != nil {
		fatal("%v", err)
	}
	res, err := schedule.AdmitPrefix(g, grid, jobs, k, lpOptions())
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("admitted %d of %d jobs (Z* = %.3f over the admitted set, %d LP solves)\n\n",
		len(res.Admitted), len(jobs), res.ZStar, res.LPSolves)
	for _, j := range res.Admitted {
		fmt.Printf("  ADMIT  %s\n", j)
	}
	for _, j := range res.Rejected {
		fmt.Printf("  REJECT %s\n", j)
	}
}

// loadGraph reads a topology in netgen JSON or BRITE format; any failure
// is fatal.
func loadGraph(path string) *netgraph.Graph {
	nf, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	var g *netgraph.Graph
	if strings.HasSuffix(path, ".brite") {
		g, err = netgraph.ReadBRITE(nf, 0)
	} else {
		g, err = netgraph.ReadJSON(nf)
	}
	nf.Close()
	if err != nil {
		fatal("%v", err)
	}
	return g
}

// loadJobs reads the -jobs file or generates -gen random jobs over the
// graph; any failure is fatal.
func loadJobs(g *netgraph.Graph, jobsPath string, gen int, genSeed int64, slices int, sliceLen float64) []job.Job {
	var jobs []job.Job
	var err error
	switch {
	case gen > 0:
		jobs, err = workload.Generate(g, workload.Config{
			Jobs: gen, Seed: genSeed,
			GBToDemand: workload.GBToDemandFactor(g.Edge(0).GbpsPerWave, sliceLen*10),
			MinWindow:  float64(slices) * sliceLen / 2,
			MaxWindow:  float64(slices) * sliceLen,
		})
		if err != nil {
			fatal("generate workload: %v", err)
		}
	case jobsPath != "":
		jf, err := os.Open(jobsPath)
		if err != nil {
			fatal("%v", err)
		}
		jobs, err = job.ReadJSON(jf)
		jf.Close()
		if err != nil {
			fatal("%v", err)
		}
	default:
		fatal("provide -jobs or -gen")
	}
	return jobs
}

func nodeLabel(g *netgraph.Graph, v netgraph.NodeID) string {
	if name := g.Node(v).Name; name != "" {
		return name
	}
	return fmt.Sprintf("%d", v)
}

func lpOptions() lp.Options {
	return lp.Options{Tracer: tracer}
}

// checkSolverFlags rejects solver flags the layers below would silently
// replace with their own defaults (a zero -alpha, -bmax or -k) or accept
// though they mean nothing (a negative one, or -alpha above 1).
func checkSolverFlags(k int, alpha, bmax float64) error {
	switch {
	case k < 1:
		return fmt.Errorf("-k must be at least 1, got %d", k)
	case !(alpha > 0 && alpha <= 1):
		return fmt.Errorf("-alpha must be in (0, 1], got %g", alpha)
	case !(bmax > 0) || math.IsInf(bmax, 0):
		return fmt.Errorf("-bmax must be positive and finite, got %g", bmax)
	}
	return nil
}

// setupLogging installs a text slog handler on stderr at the given level.
func setupLogging(level string) error {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	return nil
}

func runMaxThroughput(g *netgraph.Graph, jobs []job.Job, slices int, sliceLen float64, k int, alpha float64, colgen, verbose bool) {
	grid, err := timeslice.Uniform(0, sliceLen, slices)
	if err != nil {
		fatal("%v", err)
	}
	inst, err := schedule.NewInstanceOpts(g, grid, jobs, schedule.InstanceOptions{K: k, ColumnGen: colgen})
	if err != nil {
		fatal("%v", err)
	}
	if colgen {
		stats, err := schedule.GeneratePaths(inst, schedule.ColGenConfig{Solver: lpOptions(), Alpha: alpha})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("column generation: %d seed paths, %d priced in over %d rounds (%d solves)\n",
			stats.SeedPaths, stats.AddedPaths, stats.Rounds, stats.Solves)
	}
	res, err := schedule.MaxThroughput(inst, schedule.Config{
		Alpha: alpha, AlphaGrowth: 0.1, Solver: lpOptions(),
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("Z* = %.4f  (%s)\n", res.ZStar, loadWord(res.ZStar))
	fmt.Printf("weighted throughput: LP %.4f  LPD %.4f  LPDAR %.4f\n",
		res.LP.WeightedThroughput(), res.LPD.WeightedThroughput(), res.LPDAR.WeightedThroughput())
	// Stage 1's iters sum over the blocks it solved: a block whose Z* bound
	// shows it cannot set the minimum is not solved (schedule.stage1_pruned).
	fmt.Printf("times: stage1 %v (%d iters)  stage2 %v (%d iters)  integerize %v\n",
		res.Stage1Time, res.Stage1Iters, res.Stage2Time, res.Stage2Iters,
		res.TruncateTime+res.AdjustTime)
	zs := make([]float64, inst.NumJobs())
	for idx := range zs {
		zs[idx] = res.LPDAR.Throughput(idx)
	}
	fmt.Printf("Z_i distribution (LPDAR): min %.3f  p50 %.3f  p90 %.3f  max %.3f\n\n",
		metrics.Min(zs), metrics.Percentile(zs, 50), metrics.Percentile(zs, 90), metrics.Max(zs))

	t := metrics.NewTable("per-job throughput Z_i (LPDAR)", "job", "src->dst", "size", "Z_i", "delivered")
	for idx, j := range inst.Jobs {
		t.AddRow(
			fmt.Sprintf("%d", j.ID),
			fmt.Sprintf("%d->%d", j.Src, j.Dst),
			fmt.Sprintf("%.2f", j.Size),
			fmt.Sprintf("%.3f", res.LPDAR.Throughput(idx)),
			fmt.Sprintf("%.2f", res.LPDAR.Transferred(idx)),
		)
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}
	if verbose {
		dumpAssignment(res.LPDAR)
	}
}

func runRET(g *netgraph.Graph, jobs []job.Job, sliceLen float64, k int, bmax float64, colgen, verbose bool) {
	inst, err := schedule.BuildRETInstanceOpts(g, jobs, sliceLen, k, bmax, schedule.InstanceOptions{K: k, ColumnGen: colgen})
	if err != nil {
		fatal("%v", err)
	}
	if colgen {
		stats, err := schedule.GeneratePaths(inst, schedule.ColGenConfig{
			Solver: lpOptions(), RET: &schedule.RETConfig{BMax: bmax, Solver: lpOptions()},
		})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("column generation: %d seed paths, %d priced in over %d rounds (%d solves)\n",
			stats.SeedPaths, stats.AddedPaths, stats.Rounds, stats.Solves)
	}
	res, err := schedule.SolveRET(inst, schedule.RETConfig{BMax: bmax, Solver: lpOptions()})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("b^ = %.4f (fractional minimum), final b = %.4f after %d δ-rounds\n", res.BHat, res.B, res.Rounds)
	lpEnd, _ := res.LP.AverageEndTime()
	darEnd, _ := res.LPDAR.AverageEndTime()
	fmt.Printf("fraction finished: LP %.2f  LPD %.2f  LPDAR %.2f\n",
		res.LP.FractionFinished(), res.LPD.FractionFinished(), res.LPDAR.FractionFinished())
	fmt.Printf("average end time (slices): LP %.2f  LPDAR %.2f\n", lpEnd, darEnd)
	var ends []float64
	for idx := range inst.Jobs {
		if fs, ok := res.LPDAR.FinishSlice(idx); ok {
			ends = append(ends, float64(fs+1))
		}
	}
	fmt.Printf("finish slice (LPDAR): p50 %.1f  p90 %.1f  max %.1f\n\n",
		metrics.Percentile(ends, 50), metrics.Percentile(ends, 90), metrics.Max(ends))

	t := metrics.NewTable("per-job completion (LPDAR)", "job", "src->dst", "size", "orig end", "new end", "finish slice")
	for idx, j := range inst.Jobs {
		fs, ok := res.LPDAR.FinishSlice(idx)
		finish := "-"
		if ok {
			finish = fmt.Sprintf("%d", fs+1)
		}
		t.AddRow(
			fmt.Sprintf("%d", j.ID),
			fmt.Sprintf("%d->%d", j.Src, j.Dst),
			fmt.Sprintf("%.2f", j.Size),
			fmt.Sprintf("%.2f", j.End),
			fmt.Sprintf("%.2f", inst.Grid.ExtendFactor(j.End, res.B)),
			finish,
		)
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}
	if verbose {
		dumpAssignment(res.LPDAR)
	}
}

func dumpAssignment(a *schedule.Assignment) {
	fmt.Println("\nper-slice wavelength assignments (job/path/slice -> wavelengths):")
	for kIdx := range a.X {
		for p := range a.X[kIdx] {
			for j, v := range a.X[kIdx][p] {
				if v > 0 {
					fmt.Printf("  job %d path %d slice %d: %.0f\n", a.Inst.Jobs[kIdx].ID, p, j, v)
				}
			}
		}
	}
}

func totalSize(jobs []job.Job) float64 {
	t := 0.0
	for _, j := range jobs {
		t += j.Size
	}
	return t
}

func loadWord(z float64) string {
	if z <= 1 {
		return "overloaded"
	}
	return "underloaded"
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "wavesched: "+format+"\n", args...)
	os.Exit(1)
}
