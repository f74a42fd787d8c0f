// Package wavesched_bench holds the top-level benchmark harness: one
// testing.B benchmark per figure/table of the paper's evaluation, plus
// ablations for the design choices called out in DESIGN.md.
//
// The benchmarks run at QuickScale so `go test -bench=.` completes in
// minutes; cmd/benchfig runs the same experiments at the paper's full
// scale. Each benchmark reports the experiment's headline metric via
// b.ReportMetric alongside the usual ns/op.
package wavesched_bench

import (
	"io"
	"math/rand"
	"testing"

	"wavesched/internal/experiments"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

// benchScale is the shared reduced scale for the harness.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Seeds = []int64{1}
	return sc
}

// BenchmarkFig1 regenerates Figure 1 (normalized throughput of LP, LPD,
// LPDAR vs wavelengths per link on a random Waxman network) and reports
// the W=2 and W=32 LPD/LPDAR ratios.
func BenchmarkFig1(b *testing.B) {
	sc := benchScale()
	var rows []experiments.ThroughputRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig1(sc, experiments.DefaultWavelengths)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].LPDRatio, "lpd_ratio_w2")
	b.ReportMetric(rows[0].LPDARRatio, "lpdar_ratio_w2")
	b.ReportMetric(rows[len(rows)-1].LPDRatio, "lpd_ratio_w32")
}

// BenchmarkFig2 regenerates Figure 2 (the same sweep on the Abilene
// backbone, 11 nodes / 20 link pairs).
func BenchmarkFig2(b *testing.B) {
	sc := benchScale()
	var rows []experiments.ThroughputRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig2(sc, experiments.DefaultWavelengths)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].LPDARRatio, "lpdar_ratio_w2")
	b.ReportMetric(rows[0].LPDRatio, "lpd_ratio_w2")
}

// BenchmarkFig3 regenerates Figure 3 (computation time of LP, LPD, LPDAR
// vs number of jobs) and reports the integerization overhead as a share of
// the LP solve — the paper's observation is that it is negligible.
func BenchmarkFig3(b *testing.B) {
	sc := benchScale()
	var rows []experiments.TimeRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig3(sc, []int{6, 12, 18})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.LPms, "lp_ms")
	b.ReportMetric((last.LPDARms-last.LPms)/last.LPms*100, "integerize_overhead_pct")
}

// BenchmarkFig4 regenerates Figure 4 (average end time of LP vs LPDAR
// after the RET algorithm, vs number of jobs, overloaded network).
func BenchmarkFig4(b *testing.B) {
	sc := benchScale()
	var rows []experiments.RETRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig4(sc, []int{4, 8}, experiments.RETConfig{BMax: 3, OverloadGBx: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.LPAvgEnd, "lp_avg_end_slices")
	b.ReportMetric(last.LPDARAvgEnd, "lpdar_avg_end_slices")
	b.ReportMetric(last.LPms, "lp_ms")
}

// BenchmarkRETDecomposition measures the structural-decomposition speedup:
// the same overloaded multi-cluster RET instance solved as one coupled
// model versus split into per-cluster components solved on the worker
// pool. The component solves win twice — simplex cost grows superlinearly
// in model size, and independent components run concurrently — while
// producing the same b̂ and delivered throughput (see
// TestDecomposedMatchesMonolithicRET for the bit-level argument).
func BenchmarkRETDecomposition(b *testing.B) {
	sc := benchScale()
	sc.Jobs = 16
	sc.Nodes = 24
	var rows []experiments.DecompRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.CompareDecomposition(sc, []int{4}, experiments.RETConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	if !r.Match {
		b.Fatal("monolithic and decomposed solves disagree")
	}
	b.ReportMetric(float64(r.Components), "components")
	b.ReportMetric(r.MonoMs, "mono_ms")
	b.ReportMetric(r.SerialMs, "serial_ms")
	b.ReportMetric(r.ParallelMs, "parallel_ms")
	b.ReportMetric(r.Speedup, "speedup_vs_mono")
}

// retBenchInstance builds an overloaded QuickScale-sized RET instance
// whose binary search needs the full probe ladder (b̂ well above 0).
func retBenchInstance(b *testing.B) *schedule.Instance {
	b.Helper()
	const w = 4
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 30, LinkPairs: 60, Wavelengths: w, GbpsPerWave: 20.0 / w, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 12, Seed: 1001, GBToDemand: workload.GBToDemandFactor(20.0/w, 10),
		MinWindow: 3, MaxWindow: 6, StartSpread: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Size *= 3 // overload: windows cannot hold the demand
	}
	inst, err := schedule.BuildRETInstance(g, jobs, 1, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkRETWarmVsCold measures the tentpole speedup: the RET binary
// search re-solved cold every round versus warm-started probes chaining a
// basis across rounds (and, like the controller's epoch loop, across
// iterations via ProbeBases). Schedules are byte-identical either way —
// see TestSolveRETWarmByteIdentical.
func BenchmarkRETWarmVsCold(b *testing.B) {
	inst := retBenchInstance(b)
	cfg := schedule.RETConfig{BMax: 3, Solver: lp.Options{Pricing: lp.PartialDantzig}}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := schedule.SolveRET(inst, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.BHat == 0 {
				b.Fatal("instance not overloaded; probe ladder unexercised")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		wcfg := cfg
		wcfg.WarmStart = true
		for i := 0; i < b.N; i++ {
			res, err := schedule.SolveRET(inst, wcfg)
			if err != nil {
				b.Fatal(err)
			}
			wcfg.WarmComponents = res.ProbeBases // carry across epochs, like the controller
		}
	})
}

// BenchmarkTableFractionFinished regenerates the §III-B.1 comparison: the
// fraction of jobs finished by LP, LPD and LPDAR under the same extended
// end times (paper: LP = LPDAR = 1.0, LPD ≈ 0).
func BenchmarkTableFractionFinished(b *testing.B) {
	sc := benchScale()
	var rows []experiments.RETRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig4(sc, []int{8}, experiments.RETConfig{BMax: 3, OverloadGBx: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FracLP, "finished_lp")
	b.ReportMetric(rows[0].FracLPD, "finished_lpd")
	b.ReportMetric(rows[0].FracLPDAR, "finished_lpdar")
}

// ablationInstance builds a fixed moderately loaded instance for the
// ablation benchmarks.
func ablationInstance(b *testing.B, k int) *schedule.Instance {
	b.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 30, LinkPairs: 60, Wavelengths: 3, GbpsPerWave: 20.0 / 3, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := timeslice.Uniform(0, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 15, Seed: 6, GBToDemand: workload.GBToDemandFactor(20.0/3, 10),
		MinWindow: 4, MaxWindow: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := schedule.NewInstance(g, grid, jobs, k)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkAblationLPDAROrder compares the LPDAR greedy pass variants:
// the paper's verbatim input-order pass vs deficit-first vs demand-capped.
func BenchmarkAblationLPDAROrder(b *testing.B) {
	inst := ablationInstance(b, 4)
	res, err := schedule.MaxThroughput(inst, schedule.Config{Alpha: 0.1, AlphaGrowth: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		opts schedule.AdjustOptions
	}{
		{"verbatim", schedule.VerbatimAdjust},
		{"deficit_first", schedule.AdjustOptions{Order: schedule.OrderDeficitFirst}},
		{"capped_deficit", schedule.RETAdjust},
	} {
		b.Run(v.name, func(b *testing.B) {
			var wt float64
			for i := 0; i < b.N; i++ {
				adj := schedule.AdjustRates(res.LPD, v.opts)
				wt = adj.WeightedThroughput()
			}
			b.ReportMetric(wt, "weighted_throughput")
			b.ReportMetric(wt/res.LP.WeightedThroughput(), "ratio_vs_lp")
		})
	}
}

// BenchmarkAblationAlpha sweeps the stage-2 fairness slack α.
func BenchmarkAblationAlpha(b *testing.B) {
	inst := ablationInstance(b, 4)
	for _, alpha := range []float64{0.01, 0.05, 0.1, 0.2, 0.5} {
		b.Run(alphaName(alpha), func(b *testing.B) {
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.MaxThroughput(inst, schedule.Config{Alpha: alpha, AlphaGrowth: 0.1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.LPDAR.WeightedThroughput(), "lpdar_throughput")
			b.ReportMetric(res.Alpha, "alpha_used")
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 0.01:
		return "alpha_0.01"
	case 0.05:
		return "alpha_0.05"
	case 0.1:
		return "alpha_0.10"
	case 0.2:
		return "alpha_0.20"
	default:
		return "alpha_0.50"
	}
}

// BenchmarkAblationPathCount sweeps the allowed paths per job (the paper
// reports 4–8 suffices).
func BenchmarkAblationPathCount(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(pathName(k), func(b *testing.B) {
			inst := ablationInstance(b, k)
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.MaxThroughput(inst, schedule.Config{Alpha: 0.1, AlphaGrowth: 0.1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ZStar, "zstar")
			b.ReportMetric(res.LPDAR.WeightedThroughput(), "lpdar_throughput")
		})
	}
}

func pathName(k int) string {
	return map[int]string{1: "k1", 2: "k2", 4: "k4", 8: "k8"}[k]
}

// BenchmarkAblationIntegerization compares the paper's LPD/LPDAR against
// the classical randomized-rounding baseline.
func BenchmarkAblationIntegerization(b *testing.B) {
	inst := ablationInstance(b, 4)
	res, err := schedule.MaxThroughput(inst, schedule.Config{Alpha: 0.1, AlphaGrowth: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	lpWT := res.LP.WeightedThroughput()
	b.Run("lpd", func(b *testing.B) {
		var wt float64
		for i := 0; i < b.N; i++ {
			wt = res.LP.Truncate().WeightedThroughput()
		}
		b.ReportMetric(wt/lpWT, "ratio_vs_lp")
	})
	b.Run("lpdar", func(b *testing.B) {
		var wt float64
		for i := 0; i < b.N; i++ {
			wt = schedule.AdjustRates(res.LP.Truncate(), schedule.VerbatimAdjust).WeightedThroughput()
		}
		b.ReportMetric(wt/lpWT, "ratio_vs_lp")
	})
	b.Run("randomized_round", func(b *testing.B) {
		var sum float64
		n := 0
		for i := 0; i < b.N; i++ {
			sum += schedule.RandomizedRound(res.LP, int64(i)).WeightedThroughput()
			n++
		}
		b.ReportMetric(sum/float64(n)/lpWT, "ratio_vs_lp")
	})
}

// BenchmarkFig4Tracing measures span tracing's enabled-path overhead on
// the Fig. 4 RET solve: the same overloaded instance searched with no
// tracer versus a hierarchical tracer streaming JSONL spans to
// io.Discard. `make bench-smoke` holds the on/off ratio to <= 5%; the
// disabled-path cost has its own tighter guard in
// BenchmarkSolveTelemetryOff.
func BenchmarkFig4Tracing(b *testing.B) {
	inst := retBenchInstance(b)
	base := schedule.RETConfig{BMax: 3, Solver: lp.Options{Pricing: lp.PartialDantzig}}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := schedule.SolveRET(inst, base)
			if err != nil {
				b.Fatal(err)
			}
			if res.BHat == 0 {
				b.Fatal("instance not overloaded; probe ladder unexercised")
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		cfg := base
		cfg.Solver.Tracer = telemetry.NewTracer(io.Discard).WithTrace(1)
		for i := 0; i < b.N; i++ {
			res, err := schedule.SolveRET(inst, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.BHat == 0 {
				b.Fatal("instance not overloaded; probe ladder unexercised")
			}
		}
	})
}

// BenchmarkSolveTelemetryOff guards the telemetry layer's disabled-path
// cost: lp.SolveWith with no Tracer must stay within noise of the seed
// solver (metric updates are a handful of atomic adds per solve, and the
// nil tracer short-circuits before any attribute allocation). Compare
// against BenchmarkSimplexSolve in internal/lp when chasing regressions.
func BenchmarkSolveTelemetryOff(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model := lp.NewModel("bench", lp.Maximize)
	vars := make([]lp.VarID, 200)
	for j := range vars {
		vars[j] = model.AddVar("x", 0, float64(1+rng.Intn(9)), rng.Float64()*10-2)
	}
	for i := 0; i < 120; i++ {
		r := model.AddRow("r", lp.LE, float64(5+rng.Intn(50)))
		for j := range vars {
			if rng.Float64() < 0.3 {
				model.AddTerm(r, vars[j], rng.Float64()*4)
			}
		}
	}
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		sol, err := model.SolveWith(lp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
		iters = sol.Iters
	}
	b.ReportMetric(float64(iters), "simplex_iters")
}

// BenchmarkAblationPricing compares the simplex pricing rules on the
// stage-1 LP.
func BenchmarkAblationPricing(b *testing.B) {
	inst := ablationInstance(b, 4)
	for _, v := range []struct {
		name string
		rule lp.Pricing
	}{
		{"dantzig", lp.Dantzig},
		{"partial_dantzig", lp.PartialDantzig},
		{"bland", lp.Bland},
	} {
		b.Run(v.name, func(b *testing.B) {
			var s1 *schedule.Stage1Result
			var err error
			for i := 0; i < b.N; i++ {
				s1, err = schedule.SolveStage1(inst, lp.Options{Pricing: v.rule})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s1.Iters), "simplex_iters")
			b.ReportMetric(s1.ZStar, "zstar")
		})
	}
}
