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
// default options, under the byte-identity harness's Dantzig +
// RefactorEvery:1 and under the explicit PartialDantzig that `serve` and the
// benchmark run, plus one BMax-horizon RET solve long enough to refactorize
// a few hundred times. The
// basis kernels (LU, FTRAN/BTRAN, eta updates) promise to keep every
// floating-point operation and its order, so every LP must take the same
// pivots; a kernel change that silently alters the trajectory moves these
// counts and fails here rather than at the benchmark gate. The SolveRET
// counts of the first two arms were captured at the commit before the sparse
// LU kernels went in, those of the partial_dantzig and ret_bmax_horizon arms
// on the kernels of the commit before the O(changes) iteration kernels, and
// none has moved since: SUB-RET keeps every capacity row and the
// all-artificial start (RETConfig.withDefaults). The MaxThroughput counts
// were re-captured once, when its closed models dropped their dominated
// capacity rows, cold solves began on the slacks and stage 2 took the
// lexicographic phase (1400 → 458, 1276 → 417 and 1056 → 425 pivots).
func TestPivotSequenceGolden(t *testing.T) {
	g, jobs := goldenGraphJobs(t)
	for _, tc := range []struct {
		name          string
		opts          lp.Options
		wantMT, wantR pivotCounts
	}{
		{
			name: "default", opts: solverOpts(),
			wantMT: pivotCounts{stage1: 179, stage2: 279, pivots: 458, phase1: 163},
			wantR:  pivotCounts{retIters: 1782, retProbes: 12, pivots: 213, phase1: 1615},
		},
		{
			name: "dantzig_refactor1", opts: dantzigOpts(),
			wantMT: pivotCounts{stage1: 126, stage2: 291, pivots: 417, phase1: 156},
			wantR:  pivotCounts{retIters: 2340, retProbes: 12, pivots: 213, phase1: 1912},
		},
		{
			// The rule `serve` and the benchmark set explicitly; Auto only
			// resolves to it from 2048 rows+columns up.
			name: "partial_dantzig", opts: partialDantzigOpts(),
			wantMT: pivotCounts{stage1: 162, stage2: 263, pivots: 425, phase1: 108},
			wantR:  pivotCounts{retIters: 1799, retProbes: 12, pivots: 230, phase1: 1632},
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
				res, err := SolveRET(rinst, RETConfig{Solver: tc.opts, Monolithic: true, WarmStart: true, Parallelism: 1})
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
	// lp.Incremental, whose pivots only LPIters sees.
	t.Run("ret_bmax_horizon", func(t *testing.T) {
		rinst, err := BuildRETInstance(g, jobs[:14], 1, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		var got pivotCounts
		refactors := countRefactorizations(t, func() {
			got.pivots, got.phase1 = countPivots(t, func() {
				res, err := SolveRET(rinst, RETConfig{BMax: 5, Solver: partialDantzigOpts(), Monolithic: true, WarmStart: true, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				got.retIters, got.retProbes = res.LPIters, len(res.Probes)
			})
		})
		want := pivotCounts{retIters: 17138, retProbes: 11, pivots: 13181, phase1: 11651}
		const wantRefactors = 271
		if got != want || refactors != wantRefactors {
			t.Errorf("SolveRET pivot counts = %+v with %d refactorizations, want %+v with %d",
				got, refactors, want, wantRefactors)
		}
	})
}
