package main

import "slices"

// metricDef documents one reported number. The end-to-end entries carry
// the regression bound BENCHMARK.json repeats; the per-layer entries carry
// which end-to-end metric they are expected to move, on which workload,
// and whether they are exact counts (bit-equal for one seed, so two
// commits compare without repeats) or timings.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, share of the median
	Exact  bool    // per-layer only: a count that repeats exactly for a seed
	// Tick and Window name a registry series whose movement is the value:
	// summed over the measured Tick() calls only (link re-plans and submits
	// excluded), or from the first measured epoch to the end of the storm.
	Tick, Window string
	How          string // how it is measured (a note, when Tick or Window says the rest)
	Moves        string // per-layer only: the end-to-end metric and workload it should move
}

// how renders the measurement description for the glossary.
func (d metricDef) how() string {
	src := ""
	switch {
	case d.Tick != "":
		src = "registry delta over measured ticks of " + d.Tick
	case d.Window != "":
		src = "registry delta over the measured window of " + d.Window
	}
	if src != "" && d.How != "" {
		return src + " " + d.How
	}
	return src + d.How
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "topology + trace generation + server.New on an empty WAL + the 3 warm-up epochs that fill the active set; the shortest of the run's passes, each of which sets up afresh"},
	{Name: "epoch_p50_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "Tick() start → /v1/schedule body read, each measured epoch at its shortest over the run's passes; median over the epochs"},
	{Name: "epoch_total_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "the same per-epoch figures summed over the measured epochs"},
	{Name: "delivered_frac", Unit: "ratio", Better: "higher", Bound: 0.02,
		How: "Σ delivered ÷ Σ requested over the final Records()"},
	{Name: "deadline_met_frac", Unit: "ratio", Better: "higher", Bound: 0.1,
		How: "jobs with MetDeadline ÷ jobs submitted to epochs"},
	{Name: "utilization_mean", Unit: "ratio", Better: "higher", Bound: 0.05,
		How: "mean EpochStat.Utilization over measured epochs"},
}

const (
	onEnumColgen = "epoch_p50_s/epoch_total_s on steady-enum and steady-colgen"
	onWarm       = "epoch_* on steady-colgen, steady-ret, fault-churn"
	onEnumChurn  = "epoch_* on steady-enum and fault-churn"
	onChurn      = "epoch_* on fault-churn only"
	onColgen     = "epoch_* on steady-colgen only"
	onRET        = "epoch_* and deadline_met_frac on steady-ret only"
	onReplay     = "the matching workload's epoch_* (cold cost; the gap to the daemon's time is what carry and caches save)"
	onAll        = "epoch_* everywhere, largest share on fault-churn"
	onIntake     = "server.submit_ack_p50_ms and server.submit_jobs_per_s on intake-storm, and through tick overhead its epoch_*; flat elsewhere"
	context      = "process-level context for every workload"

	lpSpans     = "lp.solve span attributes inside measured epochs"
	replayWatch = "layer replay: harness stopwatch, cold, every 4th measured epoch"
)

var perLayer = []metricDef{
	{Name: "lp.solves", Unit: "count", Better: "lower", Exact: true, Tick: "lp_solves_total", Moves: onEnumColgen},
	{Name: "lp.solve_s", Unit: "s", Better: "lower", Tick: "lp_solve_seconds_sum", Moves: onEnumColgen},
	{Name: "lp.pivots", Unit: "count", Better: "lower", Exact: true, Tick: "lp_pivots_total", Moves: onEnumColgen},
	{Name: "lp.phase1_pivots", Unit: "count", Better: "lower", Exact: true, Tick: "lp_phase1_pivots_total", Moves: onEnumColgen},
	{Name: "lp.us_per_pivot", Unit: "us", Better: "lower", How: "lp.solve_s ÷ lp.pivots", Moves: onEnumColgen},
	{Name: "lp.rows_max", Unit: "count", Better: "lower", Exact: true, How: lpSpans, Moves: onEnumColgen},
	{Name: "lp.vars_max", Unit: "count", Better: "lower", Exact: true, How: lpSpans, Moves: onEnumColgen},
	{Name: "lp.solve_p50_ms", Unit: "ms", Better: "lower", How: lpSpans, Moves: onEnumColgen},
	{Name: "lp.solve_max_ms", Unit: "ms", Better: "lower", How: lpSpans, Moves: onEnumColgen},
	{Name: "lp.warm_hits", Unit: "count", Better: "higher", Exact: true, Tick: "lp_warmstart_hits_total", Moves: onWarm},
	{Name: "lp.warm_fallbacks", Unit: "count", Better: "lower", Exact: true, Tick: "lp_warmstart_fallbacks_total", Moves: onWarm},
	{Name: "lp.timeouts", Unit: "count", Better: "lower", Exact: true, Tick: "lp_solve_timeouts_total", Moves: onWarm},
	{Name: "lp.infeasible", Unit: "count", Better: "lower", Exact: true, Tick: "lp_infeasible_total", Moves: onWarm},
	{Name: "lp.presolve_dropped_rows", Unit: "count", Better: "higher", Exact: true, Tick: "lp_presolve_dropped_rows_total", Moves: onWarm},
	{Name: "lp.presolve_fixed_vars", Unit: "count", Better: "higher", Exact: true, Tick: "lp_presolve_fixed_vars_total", Moves: onWarm},
	{Name: "lp.solve_wall_s", Unit: "s", Better: "lower", How: "budget row: union of lp.solve spans inside measured controller.epoch spans", Moves: onEnumColgen},

	{Name: "schedule.stage1_s", Unit: "s", Better: "lower", Tick: "schedule_stage1_seconds_sum", Moves: onEnumChurn},
	{Name: "schedule.stage1_solves", Unit: "count", Better: "lower", Exact: true, Tick: "schedule_stage1_solves_total", Moves: onEnumChurn},
	{Name: "schedule.stage2_s", Unit: "s", Better: "lower", Tick: "schedule_stage2_seconds_sum", Moves: onEnumChurn},
	{Name: "schedule.alpha_retries", Unit: "count", Better: "lower", Exact: true, Tick: "schedule_stage2_alpha_retries_total", Moves: onEnumChurn},
	{Name: "schedule.lpdar_adjustments", Unit: "count", Better: "higher", Exact: true, Tick: "lpdar_adjustments_total", Moves: "delivered_frac on steady-enum and fault-churn"},
	{Name: "schedule.lpdar_passes", Unit: "count", Better: "lower", Exact: true, Tick: "lpdar_passes_total", Moves: "delivered_frac on steady-enum and fault-churn"},
	{Name: "schedule.components", Unit: "count", Better: "higher", Exact: true, Tick: "schedule_components_total", Moves: onChurn},
	{Name: "schedule.parallel_wall_s", Unit: "s", Better: "lower", Tick: "schedule_parallel_wall_seconds_sum", Moves: onChurn},
	{Name: "schedule.serial_solve_s", Unit: "s", Better: "lower", Tick: "schedule_serial_solve_seconds_sum", Moves: onChurn},
	{Name: "schedule.incremental_reused", Unit: "count", Better: "higher", Exact: true, Tick: "schedule_incremental_reused_components_total", Moves: onChurn},
	{Name: "schedule.incremental_dirty", Unit: "count", Better: "lower", Exact: true, Tick: "schedule_incremental_dirty_components_total", Moves: onChurn},
	{Name: "schedule.pathcache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, How: "schedule_pathcache_hits_total ÷ (hits + misses) over the measured window", Moves: "epoch_* on steady-enum; server.link_replan_p50_ms on fault-churn"},
	{Name: "schedule.pathcache_evictions", Unit: "count", Better: "lower", Exact: true, Window: "schedule_pathcache_evictions_total", Moves: "epoch_* on steady-enum; server.link_replan_p50_ms on fault-churn"},
	{Name: "schedule.colgen_rounds", Unit: "count", Better: "lower", Exact: true, Tick: "schedule_colgen_rounds_total", Moves: onColgen},
	{Name: "schedule.colgen_solves", Unit: "count", Better: "lower", Exact: true, Tick: "schedule_colgen_solves_total", Moves: onColgen},
	{Name: "schedule.colgen_paths", Unit: "count", Better: "lower", Exact: true, Tick: "schedule_colgen_paths_total", Moves: onColgen},
	{Name: "schedule.ret_search_steps", Unit: "count", Better: "lower", Exact: true, Tick: "ret_search_steps_total", Moves: onRET},
	{Name: "schedule.ret_probes_pruned", Unit: "count", Better: "higher", Exact: true, Tick: "lp_probe_pruned_total", Moves: onRET},
	{Name: "schedule.ret_delta_rounds", Unit: "count", Better: "lower", Exact: true, Tick: "ret_delta_rounds_total", Moves: onRET},
	{Name: "schedule.ret_probe_s", Unit: "s", Better: "lower", How: "Σ Probes[].DurUS over the measured epochs' flight-recorder frames", Moves: onRET},
	{Name: "schedule.self_s", Unit: "s", Better: "lower", How: "budget row: union of schedule.* spans inside measured epochs minus the lp.solve spans they contain", Moves: onRET},

	{Name: "schedule.build_s", Unit: "s", Better: "lower", How: replayWatch + ", schedule.NewInstanceOpts", Moves: onReplay},
	{Name: "schedule.decompose_s", Unit: "s", Better: "lower", How: replayWatch + ", schedule.Decompose", Moves: onReplay},
	{Name: "schedule.stage1_cold_s", Unit: "s", Better: "lower", How: replayWatch + ", schedule.SolveStage1 per component", Moves: onReplay},
	{Name: "schedule.stage2_cold_s", Unit: "s", Better: "lower", How: replayWatch + ", MaxThroughputWithZ Result.Stage2Time", Moves: onReplay},
	{Name: "schedule.integerize_s", Unit: "s", Better: "lower", How: replayWatch + ", MaxThroughputWithZ TruncateTime + AdjustTime", Moves: onReplay},
	{Name: "schedule.colgen_cold_s", Unit: "s", Better: "lower", How: replayWatch + ", schedule.GeneratePaths", Moves: onReplay},
	{Name: "schedule.ret_build_s", Unit: "s", Better: "lower", How: replayWatch + ", schedule.BuildRETInstanceOpts", Moves: onReplay},
	{Name: "schedule.ret_search_s", Unit: "s", Better: "lower", How: replayWatch + ", SolveRET RETResult.SearchTime", Moves: onReplay},
	{Name: "schedule.ret_extract_s", Unit: "s", Better: "lower", How: replayWatch + ", SolveRET RETResult.SolveTime", Moves: onReplay},
	{Name: "paths.kshortest_s", Unit: "s", Better: "lower", How: replayWatch + ", paths.KShortest per distinct (src, dst)", Moves: onReplay},
	{Name: "paths.kshortest_calls", Unit: "count", Better: "lower", Exact: true, How: "layer replay: distinct (src, dst) pairs", Moves: onReplay},
	{Name: "paths.us_per_call", Unit: "us", Better: "lower", How: "paths.kshortest_s ÷ paths.kshortest_calls", Moves: onReplay},

	{Name: "controller.epoch_s", Unit: "s", Better: "lower", Tick: "controller_epoch_seconds_sum", Moves: onAll},
	{Name: "controller.epoch_self_s", Unit: "s", Better: "lower", How: "budget row: controller.epoch spans minus the union of their child spans", Moves: onAll},
	{Name: "controller.epoch_cpu_s", Unit: "s", Better: "lower", How: "process CPU (getrusage) over measured ticks; with wall it gives pool utilisation", Moves: onAll},
	{Name: "controller.epoch_max_s", Unit: "s", Better: "lower", How: "longest measured controller.epoch span", Moves: onAll},
	{Name: "controller.over_tau_epochs", Unit: "count", Better: "lower", How: "measured epochs whose wall clock exceeded τ", Moves: onAll},
	{Name: "controller.active_jobs_mean", Unit: "count", Better: "lower", Exact: true, How: "mean EpochStat.ActiveJobs over measured epochs", Moves: onAll},
	{Name: "controller.admitted", Unit: "count", Better: "higher", Exact: true, Window: "controller_jobs_admitted_total", Moves: onAll},
	{Name: "controller.completed", Unit: "count", Better: "higher", Exact: true, Window: "controller_jobs_completed_total", Moves: onAll},
	{Name: "controller.expired", Unit: "count", Better: "lower", Exact: true, Window: "controller_jobs_expired_total", Moves: onAll},
	{Name: "controller.degraded_epochs", Unit: "count", Better: "lower", Exact: true, Window: "controller_epochs_degraded_total", Moves: onAll},
	{Name: "controller.link_replan_s", Unit: "s", Better: "lower", How: "lp_solve_seconds_sum moved inside link events", Moves: "server.link_replan_p50_ms on fault-churn"},

	{Name: "server.tick_overhead_s", Unit: "s", Better: "lower", How: "budget row: harness Tick() wall minus controller.epoch spans (drain + epoch-entry fsync + quota release)", Moves: "epoch_* on fault-churn"},
	{Name: "server.submit_ack_p50_ms", Unit: "ms", Better: "lower", How: "POST /v1/jobs → 202 (durable), median: the storm's phase A (2 closed-loop clients) on intake-storm, the measured epochs' submits (1 client) elsewhere", Moves: onIntake},
	{Name: "server.submit_jobs_per_s", Unit: "jobs/s", Better: "higher", How: "accepted jobs ÷ submit wall; on intake-storm the time phases A and B take at their median chunk rates (16 chunks per phase)", Moves: onIntake},
	{Name: "server.submit_http_s", Unit: "s", Better: "lower", How: "Σ client-observed round trips of the sampled submits (and the storm's batch requests)", Moves: onIntake},
	{Name: "server.submit_ack_tail_ms", Unit: "ms", Better: "lower", How: "highest percentile of the ack latencies with ≥ 10 samples beyond it (p99.9 on intake-storm)", Moves: onIntake},
	{Name: "server.schedule_read_p50_ms", Unit: "ms", Better: "lower", How: "GET /v1/schedule round trip after each measured tick, median", Moves: "epoch_* on fault-churn"},
	{Name: "server.link_replan_p50_ms", Unit: "ms", Better: "lower", How: "POST /v1/links/{id}/down → 200 (re-plan committed), median; fault-churn only", Moves: "itself; an operator-visible latency on fault-churn"},
	{Name: "server.requests", Unit: "count", Better: "lower", Exact: true, Window: "server_http_requests_total", Moves: onIntake},
	{Name: "server.submit_conflicts", Unit: "count", Better: "lower", Exact: true, Window: "server_submit_conflicts_total", Moves: onIntake},
	{Name: "server.recover_s", Unit: "s", Better: "lower", How: "server.New over the closed run's WAL (intake-storm)", Moves: onIntake},

	{Name: "admission.batches", Unit: "count", Better: "lower", Window: "admission_batches_total", How: "(group commit: varies with timing)", Moves: onIntake},
	{Name: "admission.batch_jobs_mean", Unit: "count", Better: "higher", How: "admission_batch_jobs sum ÷ count", Moves: onIntake},
	{Name: "admission.ack_wait_s", Unit: "s", Better: "lower", Window: "admission_ack_seconds_sum", How: "(enqueue → decision)", Moves: onIntake},
	{Name: "admission.queue_ops_per_s", Unit: "1/s", Better: "higher", How: "2 producers on Queue.Enqueue + 1 consumer on Drain, timed directly", Moves: onIntake},
	{Name: "store.appends", Unit: "count", Better: "lower", Window: "wal_appends_total", Moves: onIntake},
	{Name: "store.fsync_s", Unit: "s", Better: "lower", Window: "wal_fsync_seconds_sum", Moves: onIntake},
	{Name: "store.fsync_p50_ms", Unit: "ms", Better: "lower", How: "median from the wal_fsync_seconds bucket deltas", Moves: onIntake},
	{Name: "store.live_bytes", Unit: "bytes", Better: "lower", How: "wal_live_bytes gauge at the end of the measured window", Moves: onIntake},
	{Name: "store.open_replay_s", Unit: "s", Better: "lower", How: "store.Open alone on the closed run's WAL (intake-storm)", Moves: onIntake},

	{Name: "telemetry.trace_overhead_frac", Unit: "ratio", Better: "lower", How: "traced ÷ untraced epoch time − 1 over the epochs both kinds of pass ran in one process, each epoch at its shortest over the two traced passes and over the two untraced passes before them", Moves: context},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", How: "largest HeapAlloc seen after a measured tick", Moves: context},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", How: "PauseTotalNs over the measured window", Moves: context},
	{Name: "runtime.allocs_per_epoch", Unit: "count", Better: "lower", How: "Mallocs over measured ticks ÷ epochs", Moves: context},
}

// value is one reported measurement.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// endToEndOf derives the end-to-end metrics from the passes of an untraced
// run, which all ran the same epochs on the same inputs. A measured epoch's
// time is the shortest it took in any pass: the work is the same each time,
// and what the shared host adds on top — a neighbour on the sibling
// hyperthread, a stolen time slice — only ever adds, in stretches that last
// from milliseconds to a pass or two, so the minimum is the figure that
// repeats (README.md, "Why passes"). Set-up time is the shortest of the
// passes' set-ups for the same reason. The schedule-quality ratios are the same in every pass and come
// from the last, which ran on to the final records.
func endToEndOf(passes []*pass) map[string]value {
	p := passes[len(passes)-1]
	var setupS []float64
	for _, q := range passes {
		setupS = append(setupS, q.setupS)
	}
	epochS := bestEpochS(passes)
	var delivered, requested float64
	met := 0
	for _, r := range p.records {
		delivered += r.Delivered
		requested += r.Job.Size
		if r.MetDeadline {
			met++
		}
	}
	var util []float64
	for _, e := range p.epochs {
		if e.epoch < len(p.stats) {
			util = append(util, p.stats[e.epoch].Utilization)
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	values := map[string]value{
		"setup_s":           {Value: slices.Min(setupS), Samples: len(setupS)},
		"epoch_p50_s":       {Value: median(epochS), Samples: len(epochS) * len(passes)},
		"epoch_total_s":     {Value: sum(epochS), Samples: len(epochS) * len(passes)},
		"delivered_frac":    {Value: ratio(delivered, requested), Samples: len(p.records)},
		"deadline_met_frac": {Value: ratio(float64(met), float64(len(p.epochJobs))), Samples: len(p.epochJobs)},
		"utilization_mean":  {Value: mean(util), Samples: len(util)},
	}
	for _, d := range endToEnd {
		v := values[d.Name]
		v.Unit = d.Unit
		values[d.Name] = v
	}
	return values
}

// bestEpochS returns, per measured epoch, the shortest Tick()→schedule-read
// time over the passes.
func bestEpochS(passes []*pass) []float64 {
	best := make([]float64, len(passes[0].epochs))
	for e := range best {
		for i, q := range passes {
			if d := q.epochs[e].readEnd - q.epochs[e].tickStart; i == 0 || d < best[e] {
				best[e] = d
			}
		}
	}
	return best
}

// budgetRow is one line of the per-workload epoch budget.
type budgetRow struct {
	Row     string  `json:"row"`
	Seconds float64 `json:"seconds"`
}

// traceOverhead is traced ÷ untraced epoch time − 1 over the epochs both
// kinds of pass ran.
func traceOverhead(tracedS, untracedS []float64) float64 {
	n := min(len(tracedS), len(untracedS))
	if n == 0 {
		return 0
	}
	return sum(tracedS[:n])/sum(untracedS[:n]) - 1
}

// perLayerOf derives the per-layer metrics and the budget from a traced
// pass and its layer replay; overhead is the run's traceOverhead.
func perLayerOf(tp *pass, overhead float64, lt layerTimes) (map[string]value, []budgetRow) {
	raw := make(map[string]float64)
	n := make(map[string]int)
	tick, run := tp.tickDelta, tp.runDelta
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, d := range perLayer {
		switch {
		case d.Tick != "":
			raw[d.Name] = tick.sumPrefix(d.Tick)
		case d.Window != "":
			raw[d.Name] = run.sumPrefix(d.Window)
		}
	}
	raw["lp.us_per_pivot"] = div(raw["lp.solve_s"]*1e6, raw["lp.pivots"])

	hits, misses := run["schedule_pathcache_hits_total"], run["schedule_pathcache_misses_total"]
	raw["schedule.pathcache_hit_ratio"] = div(hits, hits+misses)
	for _, f := range tp.frames {
		for _, pr := range f.Probes {
			raw["schedule.ret_probe_s"] += pr.DurUS / 1e6
			n["schedule.ret_probe_s"]++
		}
	}

	replayed := func(name string, v float64) { raw[name], n[name] = v, lt.samples }
	replayed("schedule.build_s", lt.buildS)
	replayed("schedule.decompose_s", lt.decomposeS)
	replayed("schedule.stage1_cold_s", lt.stage1S)
	replayed("schedule.stage2_cold_s", lt.stage2S)
	replayed("schedule.integerize_s", lt.integerizeS)
	replayed("schedule.colgen_cold_s", lt.colgenS)
	replayed("schedule.ret_build_s", lt.retBuildS)
	replayed("schedule.ret_search_s", lt.retSearchS)
	replayed("schedule.ret_extract_s", lt.retExtractS)
	replayed("paths.kshortest_s", lt.kshortestS)
	replayed("paths.kshortest_calls", float64(lt.kshortestCalls))
	replayed("paths.us_per_call", div(lt.kshortestS*1e6, float64(lt.kshortestCalls)))

	// Span-derived numbers and the budget: per measured epoch, partition
	// Tick()→schedule-read into server overhead, controller self time,
	// schedule-layer spans, lp.solve spans and the read.
	tree := newSpanTree(tp.spans)
	epochSpan := make(map[int64]spanRec)
	for _, s := range tp.spans {
		if s.Name == "controller.epoch" {
			epochSpan[s.Trace] = s
		}
	}
	isLP := func(name string) bool { return name == "lp.solve" }
	all := func(string) bool { return true }
	var lpSolveMs []float64
	var epochTotal, readS, overTau, cpu float64
	var mallocs uint64
	for _, e := range tp.epochs {
		epochTotal += e.readEnd - e.tickStart
		readS += e.readEnd - e.tickEnd
		cpu += e.cpuS
		mallocs += e.mallocs
		if e.readEnd-e.tickStart > tau {
			overTau++
		}
		sp, ok := epochSpan[int64(e.epoch)+1]
		if !ok {
			continue
		}
		dur := sp.End - sp.Start
		solves := tree.descendants(sp, isLP, nil)
		lpWall := unionLen(clip(intervalsOf(solves), sp.Start, sp.End))
		covered := unionLen(clip(intervalsOf(tree.descendants(sp, all, nil)), sp.Start, sp.End))
		raw["controller.epoch_self_s"] += tree.selfTime(sp)
		raw["lp.solve_wall_s"] += lpWall
		raw["schedule.self_s"] += covered - lpWall
		raw["server.tick_overhead_s"] += (e.tickEnd - e.tickStart) - dur
		if dur > raw["controller.epoch_max_s"] {
			raw["controller.epoch_max_s"] = dur
		}
		for _, k := range solves {
			lpSolveMs = append(lpSolveMs, (k.End-k.Start)*1e3)
			for attr, name := range map[string]string{"rows": "lp.rows_max", "vars": "lp.vars_max"} {
				if v, ok := k.Attrs[attr].(float64); ok && v > raw[name] {
					raw[name] = v
				}
			}
		}
	}
	raw["lp.solve_p50_ms"] = median(lpSolveMs)
	raw["lp.solve_max_ms"] = maxOf(lpSolveMs)
	n["lp.solve_p50_ms"], n["lp.solve_max_ms"] = len(lpSolveMs), len(lpSolveMs)

	raw["controller.epoch_cpu_s"] = cpu
	raw["controller.over_tau_epochs"] = overTau
	var active []float64
	for _, e := range tp.epochs {
		if e.epoch < len(tp.stats) {
			active = append(active, float64(tp.stats[e.epoch].ActiveJobs))
		}
	}
	raw["controller.active_jobs_mean"] = mean(active)
	raw["controller.link_replan_s"] = tp.linkDelta["lp_solve_seconds_sum"]

	raw["server.submit_ack_p50_ms"] = median(tp.ackMs)
	raw["server.submit_jobs_per_s"] = div(float64(tp.submitted), tp.submitWallS)
	n["server.submit_ack_p50_ms"], n["server.submit_jobs_per_s"] = len(tp.ackMs), tp.submitted
	raw["server.submit_http_s"] = sum(tp.ackMs)/1e3 + tp.batchHTTPS
	_, raw["server.submit_ack_tail_ms"] = tailPercentile(tp.ackMs)
	n["server.submit_ack_tail_ms"] = len(tp.ackMs)
	raw["server.schedule_read_p50_ms"] = median(tp.schedReadMs)
	n["server.schedule_read_p50_ms"] = len(tp.schedReadMs)
	raw["server.link_replan_p50_ms"] = median(tp.linkDownS) * 1e3
	n["server.link_replan_p50_ms"] = len(tp.linkDownS)
	raw["server.recover_s"] = tp.recoverS

	raw["admission.batch_jobs_mean"] = div(run["admission_batch_jobs_sum"], run["admission_batch_jobs_count"])
	raw["admission.queue_ops_per_s"] = tp.queueOpsPerS
	raw["store.fsync_p50_ms"] = run.histQuantile("wal_fsync_seconds", 0.5) * 1e3
	raw["store.live_bytes"] = tp.gauges["wal_live_bytes"]
	raw["store.open_replay_s"] = tp.openReplayS

	raw["telemetry.trace_overhead_frac"] = overhead
	raw["runtime.heap_peak_mb"] = float64(tp.heapPeak) / (1 << 20)
	raw["runtime.gc_pause_ms"] = float64(tp.gcPauseNs) / 1e6
	raw["runtime.allocs_per_epoch"] = div(float64(mallocs), float64(len(tp.epochs)))

	budget := []budgetRow{
		{"lp.solve_wall_s", raw["lp.solve_wall_s"]},
		{"schedule.self_s", raw["schedule.self_s"]},
		{"controller.epoch_self_s", raw["controller.epoch_self_s"]},
		{"server.tick_overhead_s", raw["server.tick_overhead_s"]},
		{"server.schedule_read_s", readS},
	}
	attributed := 0.0
	for _, r := range budget {
		attributed += r.Seconds
	}
	budget = append(budget,
		budgetRow{"unattributed_s", epochTotal - attributed},
		budgetRow{"epoch_total_s (traced)", epochTotal})

	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = value{Value: raw[d.Name], Unit: d.Unit, Samples: n[d.Name]}
	}
	return out, budget
}
