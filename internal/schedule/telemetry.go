package schedule

import "wavesched/internal/telemetry"

// Package-level instruments on the default telemetry registry; a few
// atomic updates per algorithm stage, never per inner-loop element.
var (
	telStage1Solves = telemetry.Default().Counter("schedule_stage1_solves_total",
		"Stage-1 maximum-concurrent-throughput LP solves.")
	telStage1Seconds = telemetry.Default().Histogram("schedule_stage1_seconds",
		"Wall time of stage-1 solves in seconds.", nil)
	telStage1ZStar = telemetry.Default().Gauge("schedule_stage1_zstar",
		"Z* from the most recent stage-1 solve.")
	telStage1Certified = telemetry.Default().Counter("schedule_stage1_certified_total",
		"Stage-1 solves replaced by the Z* the column-generation pricing proof left on the instance.")
	telStage2Seconds = telemetry.Default().Histogram("schedule_stage2_seconds",
		"Wall time of stage-2 solve + integerization in seconds.", nil)
	telStage2MasterPlans = telemetry.Default().Counter("schedule_stage2_master_plans_total",
		"Stage-2 plans taken from the priced column-generation master instead of a stage-2 solve over the grown pool.")
	telStage2AlphaRetries = telemetry.Default().Counter("schedule_stage2_alpha_retries_total",
		"Stage-2 retries forced by an infeasible fairness floor (Remark 1).")
	telCapRowsDropped = telemetry.Default().Counter("schedule_capacity_rows_dropped_total",
		"Dominated (edge, slice) capacity rows left out of closed stage-1 and stage-2 models and column-generation masters, summed over the models built; a master also counts each cell an appended path is the first to load and links to a row instead.")

	telAdjustPasses = telemetry.Default().Counter("lpdar_passes_total",
		"LPDAR greedy bandwidth-adjustment passes (Algorithm 1 runs).")
	telAdjustments = telemetry.Default().Counter("lpdar_adjustments_total",
		"Individual LPDAR grant decisions: one per (slice, job, path) that received residual wavelengths.")
	telAdjustWavelengths = telemetry.Default().Counter("lpdar_wavelength_slices_granted_total",
		"Wavelength-slices re-granted by LPDAR on top of the truncated LP solution.")

	telRETSearchSteps = telemetry.Default().Counter("ret_search_steps_total",
		"SUB-RET feasibility probes during the binary search for b-hat.")
	telRETDeltaRounds = telemetry.Default().Counter("ret_delta_rounds_total",
		"Delta-extension rounds after b-hat before LPDAR completed every job.")
	telRETFinalB = telemetry.Default().Gauge("ret_b_final",
		"Final extension factor b of the most recent RET solve.")
	// lp_probe_pruned_total keeps the lp_ prefix from when the solver
	// answered these probes: the daemon-epoch benchmark reads it by name.
	telProbePruned = telemetry.Default().Counter("lp_probe_pruned_total",
		"RET feasibility probes answered without a simplex solve, by a window fit of the last feasible plan or by the interval bound.")

	telPathCacheHits = telemetry.Default().Counter("schedule_pathcache_hits_total",
		"Path-set computations served from a PathCache.")
	telPathCacheMisses = telemetry.Default().Counter("schedule_pathcache_misses_total",
		"Path-set computations that missed the PathCache and ran the path algorithm.")
	telPathCacheEvictions = telemetry.Default().Counter("schedule_pathcache_evictions_total",
		"PathCache entries evicted by the LRU size bound.")

	telColGenRounds = telemetry.Default().Counter("schedule_colgen_rounds_total",
		"Column-generation pricing rounds that appended at least one column.")
	telColGenPaths = telemetry.Default().Counter("schedule_colgen_paths_total",
		"Paths discovered by the column-generation pricing oracle.")
	telColGenSolves = telemetry.Default().Counter("schedule_colgen_solves_total",
		"Restricted-master LP solves during column generation.")

	telColGenCarried = telemetry.Default().Gauge("schedule_colgen_carried_paths",
		"Paths the most recent column-generation run started from, summed over jobs: seeds plus what the PathCache carried.")
	telColGenEvicted = telemetry.Default().Counter("schedule_colgen_evicted_paths_total",
		"Carried paths no master optimum used, dropped from the PathCache by a column-generation publish.")

	telComponents = telemetry.Default().Counter("schedule_components_total",
		"Components of the partitions solves ran over (1 per solve for a fully coupled or forced-monolithic instance).")
	telComponentSize = telemetry.Default().Histogram("schedule_component_size_jobs",
		"Jobs per component of the partitions solves ran over.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	telParallelWallSeconds = telemetry.Default().Histogram("schedule_parallel_wall_seconds",
		"Wall time of one decomposed parallel solve phase in seconds.", nil)
	telSerialSolveSeconds = telemetry.Default().Histogram("schedule_serial_solve_seconds",
		"Summed per-component solve time of the same phase — the serial cost the parallel run avoided.", nil)
)

// endSpan closes a span around work that may have failed: with the error, or
// with the attributes ok builds — which it is asked for only when tracing
// and only on success.
func endSpan(sp telemetry.Span, err error, ok func() []telemetry.Attr) {
	switch {
	case sp.ID() == 0: // not tracing
	case err != nil:
		sp.End(telemetry.KV("error", err.Error()))
	default:
		sp.End(ok()...)
	}
}
