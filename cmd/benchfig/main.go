// Command benchfig regenerates the figures and tables of the paper's
// evaluation section.
//
// Usage:
//
//	benchfig -fig 1            # Fig. 1: throughput vs wavelengths, random net
//	benchfig -fig 2            # Fig. 2: the same on Abilene
//	benchfig -fig 3            # Fig. 3: computation time vs jobs
//	benchfig -fig 4            # Fig. 4 + §III-B.1: RET end times & fractions
//	benchfig -fig ret          # RET probe economy: probes answered without a solve
//	benchfig -fig decomp       # decomposition: mono vs per-component solves
//	benchfig -fig scale        # scale tier: K=8 enumeration vs column generation
//	benchfig -fig all          # everything
//	benchfig -fig 1 -quick     # reduced scale for a fast run
//	benchfig -fig 1 -csv       # CSV instead of aligned text
//	benchfig -quick -json BENCH_05.json   # machine-readable perf record
//
// Scale flags (-nodes, -pairs, -jobs, -slices, -k, -seeds) override the
// defaults, which match the paper (100 nodes, 200 link pairs, 20 Gb/s
// links, sizes U[1,100] GB).
//
// -json writes a machine-readable report: per figure, the wall time of
// the sweep (ns/op) and its headline metrics, so successive runs track
// the performance trajectory of the solver stack. -baseline compares the
// fresh report against a committed one (e.g. BENCH_04.json) and exits
// nonzero when any shared figure's ns_per_op or lp_ms metric regressed
// by more than -max-regress percent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wavesched/internal/experiments"
	"wavesched/internal/metrics"
	"wavesched/internal/telemetry"
)

// figReport is one figure's entry in the -json report.
type figReport struct {
	NsPerOp int64              `json:"ns_per_op"` // wall time of the full sweep
	Metrics map[string]float64 `json:"metrics"`   // headline metrics, as in bench_test.go
}

// benchReport is the -json output: the scale the figures ran at plus one
// timed entry per figure.
type benchReport struct {
	Scale   string               `json:"scale"` // "paper", "quick", or "custom"
	Nodes   int                  `json:"nodes"`
	Jobs    int                  `json:"jobs"`
	Seeds   int                  `json:"seeds"`
	Figures map[string]figReport `json:"figures"`
}

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 1, 2, 3, 4, or all")
		quick      = flag.Bool("quick", false, "use the reduced quick scale")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		nodes      = flag.Int("nodes", 0, "override random-network node count")
		pairs      = flag.Int("pairs", 0, "override random-network link-pair count")
		jobs       = flag.Int("jobs", 0, "override job count")
		slices     = flag.Int("slices", 0, "override horizon slices")
		k          = flag.Int("k", 0, "override paths per job")
		seeds      = flag.String("seeds", "", "comma-separated replication seeds")
		waves      = flag.String("waves", "", "comma-separated wavelength sweep for figs 1-2")
		counts     = flag.String("counts", "", "comma-separated job-count sweep for figs 3-4")
		jsonOut    = flag.String("json", "", "write headline metrics and ns/op per figure to this file (e.g. BENCH_05.json)")
		baseline   = flag.String("baseline", "", "committed benchmark JSON to compare against (e.g. BENCH_04.json)")
		maxRegress = flag.Float64("max-regress", 20, "fail when ns_per_op or lp_ms regress by more than this percent vs -baseline")
		tracePath  = flag.String("trace", "", "write solver/scheduler trace spans (JSONL) to this file")
	)
	flag.Parse()

	sc := experiments.PaperScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *tracePath != "" {
		tr, err := telemetry.OpenTraceFile(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchfig: closing trace file: %v\n", err)
			}
		}()
		sc.Solver.Tracer = tr
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	if *pairs > 0 {
		sc.LinkPairs = *pairs
	}
	if *jobs > 0 {
		sc.Jobs = *jobs
	}
	if *slices > 0 {
		sc.Slices = *slices
	}
	if *k > 0 {
		sc.K = *k
	}
	if *seeds != "" {
		sc.Seeds = nil
		for _, s := range strings.Split(*seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fatal("bad -seeds value %q: %v", s, err)
			}
			sc.Seeds = append(sc.Seeds, v)
		}
	}
	waveSweep := parseInts(*waves)
	countSweep := parseInts(*counts)

	render := func(t *metrics.Table) {
		var err error
		if *csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fatal("render: %v", err)
		}
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	scaleName := "paper"
	if *quick {
		scaleName = "quick"
	}
	if *nodes > 0 || *pairs > 0 || *jobs > 0 || *slices > 0 || *k > 0 || *seeds != "" {
		scaleName = "custom"
	}
	report := benchReport{
		Scale: scaleName, Nodes: sc.Nodes, Jobs: sc.Jobs,
		Seeds:   len(sc.Seeds),
		Figures: map[string]figReport{},
	}
	record := func(name string, elapsed time.Duration, m map[string]float64) {
		report.Figures[name] = figReport{NsPerOp: elapsed.Nanoseconds(), Metrics: m}
	}

	if want("1") {
		start := time.Now()
		rows, err := experiments.Fig1(sc, waveSweep)
		if err != nil {
			fatal("fig 1: %v", err)
		}
		record("fig1", time.Since(start), map[string]float64{
			"lpd_ratio_low_w":   rows[0].LPDRatio,
			"lpdar_ratio_low_w": rows[0].LPDARRatio,
			"lpd_ratio_high_w":  rows[len(rows)-1].LPDRatio,
		})
		render(experiments.ThroughputTable(
			"Fig. 1 — normalized throughput vs wavelengths per link (random network)", rows))
	}
	if want("2") {
		start := time.Now()
		rows, err := experiments.Fig2(sc, waveSweep)
		if err != nil {
			fatal("fig 2: %v", err)
		}
		record("fig2", time.Since(start), map[string]float64{
			"lpd_ratio_low_w":   rows[0].LPDRatio,
			"lpdar_ratio_low_w": rows[0].LPDARRatio,
		})
		render(experiments.ThroughputTable(
			"Fig. 2 — normalized throughput vs wavelengths per link (Abilene, 11 nodes / 20 pairs)", rows))
	}
	if want("3") {
		start := time.Now()
		rows, err := experiments.Fig3(sc, countSweep)
		if err != nil {
			fatal("fig 3: %v", err)
		}
		last := rows[len(rows)-1]
		record("fig3", time.Since(start), map[string]float64{
			"lp_ms":                   last.LPms,
			"integerize_overhead_pct": (last.LPDARms - last.LPms) / last.LPms * 100,
			"simplex_iters":           float64(last.SimplexIter),
		})
		render(experiments.TimeTable(
			"Fig. 3 — computation time vs number of jobs (random network)", rows))
	}
	if want("4") || want("ff") {
		start := time.Now()
		rows, err := experiments.Fig4(sc, countSweep, experiments.RETConfig{})
		if err != nil {
			fatal("fig 4: %v", err)
		}
		last := rows[len(rows)-1]
		record("fig4", time.Since(start), map[string]float64{
			"lp_ms":                last.LPms,
			"lp_avg_end_slices":    last.LPAvgEnd,
			"lpdar_avg_end_slices": last.LPDARAvgEnd,
			"b_hat":                last.BHat,
			"finished_lpdar":       last.FracLPDAR,
		})
		render(experiments.RETTable(
			"Fig. 4 + §III-B.1 — RET: average end time (slices) and fraction finished", rows))
	}
	if want("ret") && *fig != "all" {
		// Explicit selection only: this is the fig4 sweep again, re-run
		// under the probe-economy lens (how the binary search spent its
		// feasibility probes), so -fig all would time the same work twice.
		start := time.Now()
		rows, err := experiments.Fig4(sc, countSweep, experiments.RETConfig{})
		if err != nil {
			fatal("ret: %v", err)
		}
		elapsed := time.Since(start)
		last := rows[len(rows)-1]
		record("ret", elapsed, map[string]float64{
			"lp_ms":            last.LPms,
			"b_hat":            last.BHat,
			"probes_solved":    last.ProbesSolved,
			"probes_pruned":    last.ProbesPruned,
			"pivots_per_solve": last.PivotsPerSolve,
		})
		// The same sweep IS fig4, so record it under that key too: a
		// report written from -fig ret stays comparable (ns_per_op and
		// lp_ms) with baselines recorded before the ret lens existed.
		record("fig4", elapsed, map[string]float64{
			"lp_ms":                last.LPms,
			"lp_avg_end_slices":    last.LPAvgEnd,
			"lpdar_avg_end_slices": last.LPDARAvgEnd,
			"b_hat":                last.BHat,
			"finished_lpdar":       last.FracLPDAR,
		})
		render(experiments.RETTable(
			"RET probe economy — probes answered without a solve (fig. 4 sweep)", rows))
	}
	if want("admission") && *fig != "all" {
		// Explicit selection only: the sustained load hammers a real WAL
		// with thousands of durable submissions, which would dominate an
		// -fig all run. It always runs at the acceptance scale (5000
		// queued jobs, 32 writers) — it takes seconds, and a fixed scale
		// keeps -quick gate runs comparable with the committed baseline.
		start := time.Now()
		res, err := experiments.AdmissionLoad(5000, 32)
		if err != nil {
			fatal("admission: %v", err)
		}
		record("admission", time.Since(start), map[string]float64{
			"jobs_per_sec": res.BatchedPerSec,
		})
		render(experiments.AdmissionTable(
			"Admission — sustained-load intake throughput", res))
	}
	if want("scale") && *fig != "all" {
		// Explicit selection only: at paper scale this sweep builds full
		// K=8 Yen enumerations over the 400- and 1000-node preset
		// networks — exactly the cost column generation avoids — so it
		// would dominate an -fig all run.
		start := time.Now()
		rows, err := experiments.CompareScale(sc, nil)
		if err != nil {
			fatal("scale: %v", err)
		}
		last := rows[len(rows)-1]
		objOK := 1.0
		for _, r := range rows {
			if !r.ObjOK {
				objOK = 0
			}
		}
		record("scale", time.Since(start), map[string]float64{
			"lp_ms":           last.ColGenMs,
			"enum_ms":         last.EnumMs,
			"speedup_vs_enum": last.Speedup,
			"colgen_paths":    float64(last.ColGenPaths),
			"enum_paths":      float64(last.EnumPaths),
			"obj_ok":          objOK,
		})
		render(experiments.ScaleTable(
			"Scale tier — stage-1 wall clock, K=8 enumeration vs column generation", rows))
	}
	if want("decomp") {
		start := time.Now()
		rows, err := experiments.CompareDecomposition(sc, nil, experiments.RETConfig{})
		if err != nil {
			fatal("decomp: %v", err)
		}
		last := rows[len(rows)-1]
		match := 1.0
		for _, r := range rows {
			if !r.Match {
				match = 0
			}
		}
		record("decomp", time.Since(start), map[string]float64{
			"components":          float64(last.Components),
			"mono_ms":             last.MonoMs,
			"parallel_ms":         last.ParallelMs,
			"speedup_vs_mono":     last.Speedup,
			"speedup_serial_only": last.MonoMs / last.SerialMs,
			"all_match":           match,
		})
		render(experiments.DecompTable(
			"Decomposition — monolithic vs per-component RET solves (multi-cluster network)", rows))
	}
	if *fig == "ablation" {
		type sweep struct {
			title, m1, m2 string
			run           func() ([]experiments.AblationRow, error)
		}
		sweeps := []sweep{
			{"Ablation — fairness slack α", "LPDAR throughput", "min Z_i",
				func() ([]experiments.AblationRow, error) { return experiments.AblationAlpha(sc, nil) }},
			{"Ablation — paths per job", "Z*", "LPDAR throughput",
				func() ([]experiments.AblationRow, error) { return experiments.AblationPaths(sc, nil) }},
			{"Ablation — LPDAR pass variants", "ratio vs LP", "min Z_i",
				func() ([]experiments.AblationRow, error) { return experiments.AblationAdjust(sc) }},
			{"Ablation — simplex pricing", "iterations", "Z*",
				func() ([]experiments.AblationRow, error) { return experiments.AblationPricing(sc) }},
		}
		for _, s := range sweeps {
			rows, err := s.run()
			if err != nil {
				fatal("ablation: %v", err)
			}
			render(experiments.AblationTable(s.title, s.m1, s.m2, rows))
		}
	}
	if *fig == "gap" {
		n := 10
		if *quick {
			n = 4
		}
		rows, err := experiments.OptimalityGap(n, sc)
		if err != nil {
			fatal("gap: %v", err)
		}
		render(experiments.GapTable(
			"Beyond the paper — LPDAR vs proven integer optimum (branch and bound)", rows))
	}
	if *jsonOut != "" {
		if len(report.Figures) == 0 {
			fatal("-json: the selected -fig %q produces no timed figures", *fig)
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal("-json: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatal("-json: %v", err)
		}
		fmt.Printf("wrote %s (%d figures)\n", *jsonOut, len(report.Figures))
	}
	if *baseline != "" {
		if err := compareBaseline(*baseline, report, *maxRegress); err != nil {
			fatal("%v", err)
		}
	}
}

// compareBaseline fails when any figure present in both the fresh report
// and the committed baseline regressed by more than maxPct percent on
// ns_per_op or on its lp_ms metric. Figures only one side has (new
// figures, or a baseline from a run with a different -fig selection) are
// skipped: the guard tracks trajectories, it does not pin the figure set.
func compareBaseline(path string, fresh benchReport, maxPct float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-baseline: %v", err)
	}
	var base benchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("-baseline %s: %v", path, err)
	}
	if base.Scale != fresh.Scale || base.Nodes != fresh.Nodes || base.Jobs != fresh.Jobs {
		return fmt.Errorf("-baseline %s ran at scale %s/%d nodes/%d jobs, this run at %s/%d/%d: not comparable",
			path, base.Scale, base.Nodes, base.Jobs, fresh.Scale, fresh.Nodes, fresh.Jobs)
	}
	failed := false
	check := func(figName, metric string, old, new float64) {
		if old <= 0 {
			return
		}
		pct := (new - old) / old * 100
		status := "ok"
		if pct > maxPct {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("baseline %s/%s: %.3g -> %.3g (%+.1f%%, limit +%.0f%%) %s\n",
			figName, metric, old, new, pct, maxPct, status)
	}
	for name, fr := range fresh.Figures {
		br, ok := base.Figures[name]
		if !ok {
			continue
		}
		// Throughput harnesses (figures that publish jobs_per_sec) are
		// gated on that metric below; their wall time sums warm-up and
		// repeated fsync-bound runs, so ns_per_op is not a signal.
		if _, isThroughput := br.Metrics["jobs_per_sec"]; !isThroughput {
			check(name, "ns_per_op", float64(br.NsPerOp), float64(fr.NsPerOp))
		}
		if oldMS, ok := br.Metrics["lp_ms"]; ok {
			if newMS, ok := fr.Metrics["lp_ms"]; ok {
				check(name, "lp_ms", oldMS, newMS)
			}
		}
		// Throughput metrics regress in the other direction: a DROP in
		// jobs/sec is the failure. Feed the check the inverted values so
		// the shared percent math applies.
		if oldTP, ok := br.Metrics["jobs_per_sec"]; ok && oldTP > 0 {
			if newTP, ok := fr.Metrics["jobs_per_sec"]; ok && newTP > 0 {
				check(name, "jobs_per_sec (inverted)", 1/oldTP, 1/newTP)
			}
		}
	}
	if failed {
		return fmt.Errorf("performance regressed beyond %.0f%% vs %s", maxPct, path)
	}
	return nil
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchfig: "+format+"\n", args...)
	os.Exit(1)
}
