package lp

import (
	"time"

	"wavesched/internal/telemetry"
)

// Package-level instruments on the default telemetry registry. Counter
// and histogram updates are a handful of atomic operations per *solve*, per
// phase or per refactorization (never per pivot: the per-pivot kernel
// tallies are kept on the simplex and flushed per phase), so they stay
// enabled unconditionally; span tracing is gated on Options.Tracer being
// non-nil.
var (
	telSolveSeconds = telemetry.Default().Histogram("lp_solve_seconds",
		"Wall time of lp.Model.SolveWith and lp.Incremental.Solve in seconds.", nil)
	telPivots = telemetry.Default().Counter("lp_pivots_total",
		"Simplex pivots across both phases, summed over all solves.")
	telPhase1Pivots = telemetry.Default().Counter("lp_phase1_pivots_total",
		"Simplex pivots spent in phase 1 (finding a feasible basis).")
	telPhase2Pivots = telemetry.Default().Counter("lp_phase2_pivots_total",
		"Simplex pivots spent in phase 2 (optimizing the real objective).")
	telLexPivots = telemetry.Default().Counter("lp_lex_pivots_total",
		"Simplex pivots spent in the second phase of lexicographic solves (Options.Secondary): from the primary optimum to the secondary optimum of the optimal face. Counted in lp_pivots_total as well.")
	telInfeasible = telemetry.Default().Counter("lp_infeasible_total",
		"Solves that proved the model infeasible.")
	telTimeouts = telemetry.Default().Counter("lp_solve_timeouts_total",
		"Solves aborted because the wall-clock Options.TimeLimit expired.")
	telWarmHits = telemetry.Default().Counter("lp_warmstart_hits_total",
		"Solves that ran to completion from a supplied warm-start basis.")
	telWarmFallbacks = telemetry.Default().Counter("lp_warmstart_fallbacks_total",
		"Warm-start attempts abandoned for the cold path (structural mismatch, singular basis, or numerical trouble).")
	telRefactorizations = telemetry.Default().Counter("lp_refactorizations_total",
		"Basis LU factorizations: the first of each solve, one per Options.RefactorEvery eta updates, and the repair ones.")
	telRefactorSeconds = telemetry.Default().Gauge("lp_refactor_seconds",
		"Sum of the wall time spent in basis LU factorization, in seconds.")
	telBtran = telemetry.Default().Counter("lp_btran_total",
		"BTRAN solves run by primal pricing to bring the duals up to date. The first after a refactorization or a cost change solves over every position; each later one resets and solves only the positions the LU factors and eta file can write, from the last one's result.")
	telBtranElided = telemetry.Default().Counter("lp_btran_elided_total",
		"Primal pricing calls that skipped the BTRAN: the last pivot (a bound flip, or a slack replacing the artificial of an isolated row) left the duals in hand exact, so not even the restricted solve ran. The elided share is this over its sum with lp_btran_total.")
	telRescored = telemetry.Default().Counter("lp_pricing_rescored_columns_total",
		"Reduced costs recomputed by primal pricing (one sparse dot product each); columns scanned beyond these were served from the reduced-cost cache.")
	telScanned = telemetry.Default().Counter("lp_pricing_scanned_columns_total",
		"Columns primal pricing read one at a time; the columns of a block answered from its summary are not among them.")
	telBlockHits = telemetry.Default().Counter("lp_pricing_block_hits_total",
		"Blocks of 32 columns primal pricing answered from their cached summary (first eligible column, leftmost best, its score) instead of reading them.")
	telRefactorReused = telemetry.Default().Counter("lp_refactor_reused_total",
		"Refactorizations that kept the LU factors because no basis slot had received a different column since they were computed (only the eta file was emptied). Counted in lp_refactorizations_total as well.")
	telLUNnz = telemetry.Default().Gauge("lp_lu_nnz",
		"Stored entries of the last basis factorization: L and U off-diagonals plus the U diagonal.")

	telSolvesByStatus = func() map[Status]*telemetry.Counter {
		m := make(map[Status]*telemetry.Counter)
		for _, st := range []Status{Optimal, Infeasible, Unbounded, IterLimit, Numerical, TimeLimit} {
			m[st] = telemetry.Default().CounterWith("lp_solves_total",
				"LP solves by final status.", map[string]string{"status": st.String()})
		}
		return m
	}()
)

// countSolve feeds one solve — a SolveWith or an Incremental.Solve — to the
// solve counters: its wall time, and, when it returned a solution, its
// pivots and final status.
func countSolve(start time.Time, sol *Solution, pivots int) {
	telSolveSeconds.ObserveSince(start)
	if sol == nil {
		return
	}
	telPivots.Add(int64(pivots))
	if c, ok := telSolvesByStatus[sol.Status]; ok {
		c.Inc()
	}
	if sol.Status == Infeasible {
		telInfeasible.Inc()
	}
}
