package schedule

import (
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
	"wavesched/internal/workload"
)

// pivotCounts is the pivot trajectory of one scheduling run in numbers:
// the per-stage counts the result reports plus the process-wide
// lp_pivots_total / lp_phase1_pivots_total deltas the run caused.
type pivotCounts struct {
	stage1, stage2 int   // Result.Stage1Iters / Stage2Iters (MaxThroughput)
	retIters       int   // RETResult.LPIters (SolveRET)
	retProbes      int   // len(RETResult.Probes)
	pivots, phase1 int64 // lp_pivots_total, lp_phase1_pivots_total deltas
}

// countPivots runs fn and returns the lp pivot-counter deltas it caused.
func countPivots(t *testing.T, fn func()) (pivots, phase1 int64) {
	t.Helper()
	read := func(name string) int64 {
		v, ok := telemetry.Default().CounterValue(name, nil)
		if !ok {
			t.Fatalf("counter %s not registered", name)
		}
		return v
	}
	p0, q0 := read("lp_pivots_total"), read("lp_phase1_pivots_total")
	fn()
	return read("lp_pivots_total") - p0, read("lp_phase1_pivots_total") - q0
}

// countRefactorizations runs fn and returns how many basis LU
// factorizations it caused (lp_refactorizations_total delta).
func countRefactorizations(t *testing.T, fn func()) int64 {
	t.Helper()
	read := func() int64 {
		v, ok := telemetry.Default().CounterValue("lp_refactorizations_total", nil)
		if !ok {
			t.Fatal("counter lp_refactorizations_total not registered")
		}
		return v
	}
	r0 := read()
	fn()
	return read() - r0
}

// partialDantzigOpts is the solver configuration `serve` and the daemon-epoch
// benchmark run with: the rotating-window rule set explicitly, every other
// option (RefactorEvery 64 included) at its default.
func partialDantzigOpts() lp.Options {
	return lp.Options{MaxIter: 200000, Pricing: lp.PartialDantzig}
}

// goldenGraphJobs is the fixed 30-node input both golden runs share.
func goldenGraphJobs(t *testing.T) (*netgraph.Graph, []job.Job) {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 30, LinkPairs: 60, Wavelengths: 4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 15, Seed: 14, GBToDemand: 2, MinWindow: 3, MaxWindow: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, jobs
}

// TestPivotSequenceGolden pins the simplex trajectory of the two solver
// entry points on one fixed 30-node instance (SolveRET on its first six
// jobs, which keeps the per-pivot-refactorization arm short), under the
// byte-identity harness's Dantzig + RefactorEvery:1, under the explicit
// PartialDantzig that `serve` and the benchmark run and under the zero
// value, which is that rule, plus one BMax-horizon RET solve long enough to
// refactorize a few hundred times. The
// basis kernels (LU, FTRAN/BTRAN, eta updates) promise to keep every
// floating-point operation and its order, so every LP must take the same
// pivots; a kernel change that silently alters the trajectory moves these
// counts and fails here rather than at the benchmark gate. The SolveRET
// counts of the dantzig_refactor1 arm were captured at the commit before the
// sparse LU kernels went in, those of the partial_dantzig and
// ret_bmax_horizon arms on the kernels of the commit before the O(changes)
// iteration kernels. SUB-RET keeps every capacity row and the
// all-artificial start (RETConfig.withDefaults), and the kernels have moved
// none of them since; the RET rows were re-captured once, when the search
// began pruning its probes by certificate in every solve rather than only
// under an option (retIters 2340 → 2335, 1799 → 1795, 17138 → 17055; 271 →
// 270 refactorizations; probes, pivots and phase-1 pivots unchanged), and
// their lp_pivots_total deltas once, when lp.Incremental's solves began to
// count there (213 → 2335, 230 → 1795, 13181 → 17055: the delta now equals
// retIters; no pivot moved), and again when the interval bound began
// refuting infeasible probes before any solve, so fewer probe-chain and
// fresh solves run (retIters 2335 → 2111, 1795 → 1559, 17055 → 16805;
// phase-1 pivots 1912 → 1699, 1632 → 1402, 11651 → 11254; 270 → 265
// refactorizations; probes and b̂ unchanged). The MaxThroughput counts were re-captured
// once, when its closed models dropped their dominated capacity rows, cold
// solves began on the slacks and stage 2 took the lexicographic phase
// (1276 → 417 and 1056 → 425 pivots).
func TestPivotSequenceGolden(t *testing.T) {
	g, jobs := goldenGraphJobs(t)
	for _, tc := range []struct {
		name          string
		opts          lp.Options
		wantMT, wantR pivotCounts
	}{
		{
			name: "dantzig_refactor1", opts: dantzigOpts(),
			wantMT: pivotCounts{stage1: 126, stage2: 291, pivots: 417, phase1: 156},
			wantR:  pivotCounts{retIters: 2111, retProbes: 12, pivots: 2111, phase1: 1699},
		},
		{
			// The rule `serve` and the benchmark set explicitly.
			name: "partial_dantzig", opts: partialDantzigOpts(),
			wantMT: pivotCounts{stage1: 162, stage2: 263, pivots: 425, phase1: 108},
			wantR:  pivotCounts{retIters: 1559, retProbes: 12, pivots: 1559, phase1: 1402},
		},
		{
			// The default options: the zero value is that rule, so the
			// same pivots.
			name: "default", opts: solverOpts(),
			wantMT: pivotCounts{stage1: 162, stage2: 263, pivots: 425, phase1: 108},
			wantR:  pivotCounts{retIters: 1559, retProbes: 12, pivots: 1559, phase1: 1402},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := NewInstance(g, mustGrid(t, 6), jobs, 4)
			if err != nil {
				t.Fatal(err)
			}
			var got pivotCounts
			got.pivots, got.phase1 = countPivots(t, func() {
				res, err := MaxThroughput(inst, Config{AlphaGrowth: 0.1, Solver: tc.opts, Monolithic: true})
				if err != nil {
					t.Fatal(err)
				}
				got.stage1, got.stage2 = res.Stage1Iters, res.Stage2Iters
			})
			if got != tc.wantMT {
				t.Errorf("MaxThroughput pivot counts = %+v, want %+v", got, tc.wantMT)
			}

			rinst, err := BuildRETInstance(g, jobs[:6], 1, 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			got = pivotCounts{}
			got.pivots, got.phase1 = countPivots(t, func() {
				res, err := SolveRET(rinst, RETConfig{Solver: tc.opts, Monolithic: true, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				got.retIters, got.retProbes = res.LPIters, len(res.Probes)
			})
			if got != tc.wantR {
				t.Errorf("SolveRET pivot counts = %+v, want %+v", got, tc.wantR)
			}
		})
	}
	// The shape steady-ret solves every epoch: 14 jobs on the
	// (1+BMax)-fold horizon at serve's BMax = 5, under serve's pricing rule
	// and the default RefactorEvery, so one solve runs through many eta
	// files and refactorizations — the schedule of which (and with it every
	// rounding) a kernel change must keep. The probes chain through
	// lp.Incremental, whose pivots lp_pivots_total counts like any solve's,
	// so the counter's delta is LPIters.
	t.Run("ret_bmax_horizon", func(t *testing.T) {
		rinst, err := BuildRETInstance(g, jobs[:14], 1, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		var got pivotCounts
		refactors := countRefactorizations(t, func() {
			got.pivots, got.phase1 = countPivots(t, func() {
				res, err := SolveRET(rinst, RETConfig{BMax: 5, Solver: partialDantzigOpts(), Monolithic: true, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				got.retIters, got.retProbes = res.LPIters, len(res.Probes)
			})
		})
		want := pivotCounts{retIters: 16805, retProbes: 11, pivots: 16805, phase1: 11254}
		const wantRefactors = 265
		if got != want || refactors != wantRefactors {
			t.Errorf("SolveRET pivot counts = %+v with %d refactorizations, want %+v with %d",
				got, refactors, want, wantRefactors)
		}
	})
}

// TestRETPivotsCountChainedSolves: the probes of a SolveRET chain through
// lp.Incremental, and every pivot they take counts in lp_pivots_total, the
// phase-1 pivots of their full solves among them — so over the search the
// counter moves at least as far as lp_phase1_pivots_total, and as far as
// LPIters.
func TestRETPivotsCountChainedSolves(t *testing.T) {
	g, jobs := goldenGraphJobs(t)
	rinst, err := BuildRETInstance(g, jobs[:6], 1, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	var res *RETResult
	pivots, phase1 := countPivots(t, func() {
		if res, err = SolveRET(rinst, RETConfig{Solver: solverOpts(), Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if phase1 == 0 || pivots < phase1 || pivots != int64(res.LPIters) {
		t.Errorf("lp_pivots_total delta %d, lp_phase1_pivots_total delta %d, LPIters %d: want %d ≥ %d and equal to LPIters",
			pivots, phase1, res.LPIters, pivots, phase1)
	}
}
