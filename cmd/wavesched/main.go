// Command wavesched runs the paper's scheduling algorithms on a scenario:
// a network topology (JSON from netgen) plus a job list (JSON array).
//
// Usage:
//
//	wavesched -net net.json -jobs jobs.json -algo maxthroughput -slices 10
//	wavesched -net net.json -jobs jobs.json -algo ret -bmax 5
//	wavesched -net net.json -gen 20 -gen-seed 7 -algo maxthroughput
//	wavesched -net net.json -gen 20 -algo sim -tau 2 -mtbf 50 -mttr 4 -max-time 100
//	wavesched serve -net net.json -addr :8080 -tau 2s -wal /var/lib/wavesched
//	wavesched explain -net net.json -gen 20 -policy ret -job 3
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
// The explain subcommand replays a scenario deterministically and prints
// one job's decision history (admission verdict, component membership,
// probe bounds, final outcome); traceconv converts a -trace JSONL file
// to Chrome trace_event JSON for chrome://tracing or Perfetto. See
// DESIGN.md §12.
//
// -algo sim drives the periodic controller (period -tau, policy -policy)
// over the workload. Link failures can be injected from a JSON trace
// (-fail-trace) or drawn from a seeded per-link exponential MTBF/MTTR
// process (-mtbf/-mttr/-fail-seed, bounded by -max-time); the run ends
// with a per-job disruption report.
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
	// Subcommand dispatch before flag parsing: serve, explain, and
	// traceconv each carry their own flag set.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "explain":
			explainMain(os.Args[2:])
			return
		case "traceconv":
			traceconvMain(os.Args[2:])
			return
		}
	}
	var (
		netPath  = flag.String("net", "", "network JSON (required)")
		jobsPath = flag.String("jobs", "", "jobs JSON")
		gen      = flag.Int("gen", 0, "generate this many random jobs instead of -jobs")
		genSeed  = flag.Int64("gen-seed", 1, "workload seed for -gen")
		algo     = flag.String("algo", "maxthroughput", "algorithm: maxthroughput or ret")
		slices   = flag.Int("slices", 10, "horizon length in slices")
		sliceLen = flag.Float64("slice-len", 1, "slice duration")
		k        = flag.Int("k", 4, "allowed paths per job")
		alpha    = flag.Float64("alpha", 0.1, "stage-2 fairness slack")
		bmax     = flag.Float64("bmax", 5, "RET extension ceiling")
		colgen   = flag.Bool("colgen", false, "price path columns on demand (column generation) instead of enumerating -k paths upfront")
		verbose  = flag.Bool("verbose", false, "dump per-slice assignments")
		jsonOut  = flag.Bool("json", false, "emit the -algo sim result as JSON instead of text")

		tau       = flag.Float64("tau", 2, "scheduling period for -algo sim (multiple of -slice-len)")
		policy    = flag.String("policy", "maxthroughput", "controller policy for -algo sim: maxthroughput, ret, or reject")
		maxTime   = flag.Float64("max-time", 0, "stop the simulation at this virtual time (0 = run until drained)")
		failTrace = flag.String("fail-trace", "", "JSON link failure/repair trace to inject (-algo sim)")
		mtbf      = flag.Float64("mtbf", 0, "generate link failures with this mean time between failures (0 = off; -algo sim)")
		mttr      = flag.Float64("mttr", 1, "mean time to repair for generated failures (-algo sim)")
		failSeed  = flag.Int64("fail-seed", 1, "seed for the generated failure process (-algo sim)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/pprof on this address, e.g. :9090")
		tracePath   = flag.String("trace", "", "write solver/scheduler trace events (JSONL) to this file")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, or error")
	)
	flag.Parse()

	if err := setupLogging(*logLevel); err != nil {
		fatal("%v", err)
	}
	if err := checkSolverFlags(*k, *alpha, *bmax); err != nil {
		fatal("%v", err)
	}
	if *metricsAddr != "" {
		_, addr, err := telhttp.ListenAndServe(*metricsAddr, telemetry.Default())
		if err != nil {
			fatal("%v", err)
		}
		slog.Info("telemetry endpoint up", "addr", addr.String(),
			"metrics", "/metrics", "pprof", "/debug/pprof/")
	}
	if *tracePath != "" {
		tr, err := telemetry.OpenTraceFile(*tracePath)
		if err != nil {
			fatal("%v", err)
		}
		defer func() {
			if err := tr.Close(); err != nil {
				slog.Warn("closing trace file", "err", err)
			}
		}()
		tracer = tr
		slog.Info("tracing enabled", "file", *tracePath)
	}

	if *netPath == "" {
		fatal("-net is required")
	}
	g := loadGraph(*netPath)
	jobs := loadJobs(g, *jobsPath, *gen, *genSeed, *slices, *sliceLen)

	if !(*algo == "sim" && *jsonOut) { // keep stdout pure JSON under -json
		fmt.Printf("network %q: %d nodes, %d directed edges, %d wavelengths/link\n",
			g.Name, g.NumNodes(), g.NumEdges(), g.Edge(0).Wavelengths)
		fmt.Printf("jobs: %d, total demand %.2f wavelength-slices\n\n", len(jobs), totalSize(jobs))
	}

	switch *algo {
	case "maxthroughput":
		runMaxThroughput(g, jobs, *slices, *sliceLen, *k, *alpha, *colgen, *verbose)
	case "ret":
		runRET(g, jobs, *sliceLen, *k, *bmax, *colgen, *verbose)
	case "admit":
		runAdmit(g, jobs, *slices, *sliceLen, *k)
	case "bottleneck":
		runBottleneck(g, jobs, *slices, *sliceLen, *k)
	case "sim":
		err := runSim(os.Stdout, g, jobs, simOptions{
			Tau: *tau, SliceLen: *sliceLen, K: *k, Alpha: *alpha, BMax: *bmax,
			Policy: *policy, MaxTime: *maxTime, JSON: *jsonOut,
			ColumnGen: *colgen,
			FailTrace: *failTrace, MTBF: *mtbf, MTTR: *mttr, FailSeed: *failSeed,
		})
		if err != nil {
			fatal("%v", err)
		}
	default:
		fatal("unknown -algo %q (want maxthroughput, ret, admit, bottleneck, or sim)", *algo)
	}
}

// runAdmit demonstrates the paper's action (i): reject-based admission
// control by arrival order with binary search on the feasible prefix.
func runAdmit(g *netgraph.Graph, jobs []job.Job, slices int, sliceLen float64, k int) {
	grid, err := timeslice.Uniform(0, sliceLen, slices)
	if err != nil {
		fatal("%v", err)
	}
	res, err := schedule.AdmitPrefix(g, grid, jobs, k, schedule.ByRequestTime, lpOptions())
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

// runBottleneck reports the links whose extra wavelengths would raise Z*.
func runBottleneck(g *netgraph.Graph, jobs []job.Job, slices int, sliceLen float64, k int) {
	grid, err := timeslice.Uniform(0, sliceLen, slices)
	if err != nil {
		fatal("%v", err)
	}
	inst, err := schedule.NewInstance(g, grid, jobs, k)
	if err != nil {
		fatal("%v", err)
	}
	bns, s1, err := schedule.BottleneckAnalysis(inst, lpOptions())
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("Z* = %.4f; %d binding capacity constraints\n\n", s1.ZStar, len(bns))
	t := metrics.NewTable("capacity shadow prices (top 15)", "link", "slice", "dZ*/dC", "valid cap range")
	for i, b := range bns {
		if i == 15 {
			break
		}
		e := g.Edge(b.Edge)
		t.AddRow(
			fmt.Sprintf("%s->%s", nodeLabel(g, e.From), nodeLabel(g, e.To)),
			fmt.Sprintf("%d", b.Slice),
			fmt.Sprintf("%.4f", b.ShadowPrice),
			fmt.Sprintf("[%.1f, %.1f]", b.CapRange.Lo, b.CapRange.Hi),
		)
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal("%v", err)
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
	return lp.Options{Pricing: lp.PartialDantzig, Tracer: tracer}
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
		Alpha: alpha, AlphaGrowth: 0.1, Solver: lpOptions(), WarmStart: true,
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("Z* = %.4f  (%s)\n", res.ZStar, loadWord(res.ZStar))
	fmt.Printf("weighted throughput: LP %.4f  LPD %.4f  LPDAR %.4f\n",
		res.LP.WeightedThroughput(), res.LPD.WeightedThroughput(), res.LPDAR.WeightedThroughput())
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
	res, err := schedule.SolveRET(inst, schedule.RETConfig{BMax: bmax, Solver: lpOptions(), WarmStart: true})
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
