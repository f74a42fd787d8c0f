package schedule

import (
	"fmt"
	"time"

	"wavesched/internal/lp"
	"wavesched/internal/telemetry"
)

// defaultAlpha is the fairness slack the paper uses, selected wherever an
// α is left zero.
const defaultAlpha = 0.1

// maxAlpha bounds the AlphaGrowth retries: at α = 1 there is no fairness
// floor at all.
const maxAlpha = 1

// Config tunes the two-stage maximizing-throughput algorithm. The LPDAR
// greedy pass is the paper's verbatim Algorithm 1 (VerbatimAdjust).
type Config struct {
	// Alpha is the fairness slack in constraint (9): every job's
	// throughput must reach (1−Alpha)·Z*. Zero selects the paper's 0.1.
	Alpha float64
	// AlphaGrowth: if the stage-2 LP is infeasible at Alpha (possible for
	// very tight instances), Alpha is increased by this additive step and
	// the LP retried, per the paper's Remark 1, up to α = 1. Zero disables
	// retries.
	AlphaGrowth float64
	// Solver passes through to the simplex.
	Solver lp.Options
	// Weight sets the stage-2 objective weights (nil selects the paper's
	// default, WeightBySize). See WeightFunc for the alternatives the
	// paper discusses.
	Weight WeightFunc
	// WarmStart accelerates the AlphaGrowth retry ladder: when the LP is
	// infeasible at Alpha, the retries probe successive α values on one
	// reusable model (only the fairness-floor bounds change), each solve
	// warm-started from the previous basis. The probes are status-only —
	// the extraction solve at the final α is built and solved exactly as
	// the cold path would, so the returned schedule is byte-identical.
	WarmStart bool
	// Monolithic makes the partition the solve runs over the instance
	// itself, one LP over all jobs, even when it decomposes into independent
	// components (see Decompose) — the reference the decomposed solve, which
	// is the default, is compared against.
	Monolithic bool
	// Parallelism bounds the worker pool for per-component solves; ≤ 0
	// selects NumCPU. The merge order is fixed by component order, so
	// any parallelism level produces identical results.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = defaultAlpha
	}
	return c
}

// Result is the outcome of the full maximizing-throughput algorithm with
// all three solution variants the paper compares.
type Result struct {
	ZStar float64 // from stage 1
	Alpha float64 // the fairness slack actually used

	LP    *Assignment // fractional stage-2 optimum (upper bound)
	LPD   *Assignment // truncated integer solution
	LPDAR *Assignment // truncated + greedily adjusted integer solution

	Stage1Iters  int
	Stage2Iters  int
	Stage1Time   time.Duration
	Stage2Time   time.Duration
	TruncateTime time.Duration // LPD truncation
	AdjustTime   time.Duration // LPDAR greedy pass (after truncation)

	// Components is the number of independent blocks the solve ran over
	// (1 for a fully coupled instance or under Config.Monolithic).
	Components int

	// Reused is the number of components whose cached plan an incremental
	// solve substituted for a fresh LP (always 0 outside
	// MaxThroughputIncremental).
	Reused int

	// Plan names where the fractional plan came from: PlanMaster when
	// GeneratePaths' priced stage-2 master had left it on the instance
	// (Stage2Iters and Stage2Time are then its lexicographic phase), PlanCold
	// when a stage-2 solve of this call produced it. Both are the same plan:
	// every stage-2 solve ends with the lexicographic phase (stage2Secondary).
	Plan string
}

// Result.Plan values.
const (
	PlanMaster = "master"
	PlanCold   = "cold"
)

// LPTime is the total optimization time shared by all three variants.
func (r *Result) LPTime() time.Duration { return r.Stage1Time + r.Stage2Time }

// LPDTime is the total time to produce the LPD solution.
func (r *Result) LPDTime() time.Duration { return r.LPTime() + r.TruncateTime }

// LPDARTime is the total time to produce the LPDAR solution.
func (r *Result) LPDARTime() time.Duration { return r.LPDTime() + r.AdjustTime }

// MaxThroughput runs the paper's Section II-B algorithm end to end:
// stage 1 (MCF) for Z*, stage 2 LP with the fairness floor, then LPD and
// LPDAR integerization. Both stages are solved per block of the instance's
// partition on a worker pool: Z* is the minimum of the block optima and the
// stage-2 floor (1−α)·Z* makes stage 2 separable given that global Z*, so
// the merged schedule is the one a single model over all jobs returns —
// which is what the solve is when the instance is one block, or
// Config.Monolithic says to treat it as one.
func MaxThroughput(inst *Instance, cfg Config) (*Result, error) {
	res, _, err := maxThroughput(inst, nil, cfg, nil)
	return res, err
}

// MaxThroughputWithZ runs stage 2 for an already-computed stage-1 result.
// Only s1.ZStar, Iters, and Time are consulted, so a stage-1 result from
// a different (e.g. healthier) topology is acceptable — the controller's
// degraded-mode situation.
func MaxThroughputWithZ(inst *Instance, s1 *Stage1Result, cfg Config) (*Result, error) {
	res, _, err := maxThroughput(inst, s1, cfg, nil)
	return res, err
}

// maxThroughput is the Section II-B pipeline over the instance's partition,
// the one body behind MaxThroughput, MaxThroughputWithZ and
// MaxThroughputIncremental: stage 1 per component and Z* = min (skipped when
// s1 is given); the Remark-1 α ladder per component and α = max — the first α
// at which every block is feasible, exactly where a single model's ladder
// stops, since block feasibility is monotone in α and every ladder steps
// through the same float sequence; a re-solve at α of the components that
// settled below it; the merge; LPD and LPDAR over the whole network.
//
// A non-nil cache adds component-level reuse (see MaxThroughputIncremental)
// and makes the solve return the cache that replaces it. No entry passes both
// s1 and a cache: a cached plan records its component's own stage-1 optimum,
// which a given s1 does not hold.
func maxThroughput(inst *Instance, s1 *Stage1Result, cfg Config, cache *PlanCache) (res *Result, next *PlanCache, err error) {
	cfg = cfg.withDefaults()
	dsp := cfg.Solver.Tracer.Start("schedule.decompose")
	comps := partition(inst, nil, cfg.Monolithic)
	endDecompose(dsp, inst, comps)

	// known[i] is the cached plan of a component that is unchanged since the
	// caching solve.
	known := make([]*ComponentPlan, len(comps))
	if cache != nil {
		for i, c := range comps {
			if cp := cache.Plans[c.Key]; cp != nil && matchPlan(cp, c) {
				known[i] = cp
			}
		}
	}

	var s1s []*Stage1Result
	if s1 == nil {
		if s1, s1s, err = stage1Min(comps, known, cfg); err != nil {
			return nil, nil, err
		}
	}
	// Cached stage-2 state is keyed to the global Z* bit for bit: the floor
	// (1−α)·Z* enters every LP, so a changed Z* dirties stage 2 everywhere
	// (stage-1 reuse still stands).
	zstar := s1.ZStar
	zSame := cache != nil && cache.ZStar == zstar

	// The plan the priced master left on the instance, when it answers this
	// very LP. Only a partition that is the instance itself can have one
	// (sub-instances inherit none); nothing is then solved and no stage-2
	// span opened.
	mp := comps[0].Inst.planFor(zstar, cfg.Alpha, cfg.Weight)
	var sp telemetry.Span
	if mp == nil {
		sp = cfg.Solver.Tracer.Start("schedule.stage2")
		cfg.Solver.Tracer = sp.Tracer()
	}
	defer func() { endStage2(sp, res, err, inst, comps) }()

	// Clean components under an unchanged Z* already know their ladder α; the
	// others walk the ladder.
	wall := time.Now()
	lads := make([]rung, len(comps))
	err = runComponents(len(comps), cfg.Parallelism, func(i int) (err error) {
		switch {
		case mp != nil:
			telStage2MasterPlans.Inc()
			lads[i] = rung{alpha: cfg.Alpha, frac: mp.frac, iters: mp.iters, dur: mp.dur}
		case known[i] != nil && zSame:
			lads[i] = rung{alpha: known[i].LadderAlpha, cached: true}
		default:
			lads[i], err = stage2Ladder(comps[i].Inst, zstar, cfg)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	alpha := lads[0].alpha
	for _, l := range lads[1:] {
		if l.alpha > alpha {
			alpha = l.alpha
		}
	}
	// Final fractional solutions at the global α. A component that settled
	// below it is re-solved there: a single model would have applied the
	// floor (1−α)·Z* to every job, and a larger α only loosens the floor, so
	// the re-solve stays feasible. A clean component whose cached extraction
	// used this exact α reuses it; one cached at another α is solved like a
	// component that settled below — a ladder's final accepted solve and a
	// direct solve at its α are the same LP call, so the substitution is
	// invisible.
	err = runComponents(len(comps), cfg.Parallelism, func(i int) error {
		l := &lads[i]
		switch {
		case l.cached && known[i].SolvedAlpha == alpha:
			l.frac, l.reused = regridFrac(known[i].Frac, comps[i].Inst), true
			return nil
		case !l.cached && l.alpha == alpha:
			return nil
		}
		start := time.Now()
		frac, status, _, iters, err := solveStage2Frac(comps[i].Inst, zstar, alpha, cfg)
		if err != nil {
			return err
		}
		if status != lp.Optimal {
			return fmt.Errorf("schedule: stage 2: component re-solve at alpha=%g returned %v", alpha, status)
		}
		l.frac = frac
		l.iters += iters
		l.dur += time.Since(start)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stage2Time := time.Since(wall)
	if mp != nil {
		stage2Time = mp.dur // what the plan cost is the master's solve
	}

	fracs := make([]*Assignment, len(comps))
	iters, reused := 0, 0
	var serial time.Duration
	for i, l := range lads {
		fracs[i] = l.frac
		iters += l.iters
		serial += l.dur
		if l.reused {
			reused++
		}
	}
	res = integerize(mergeAssignments(inst, comps, fracs), cfg)
	res.ZStar = zstar
	res.Alpha, res.Plan = alpha, PlanCold
	if mp != nil {
		res.Plan = PlanMaster
	}
	res.Stage1Iters = s1.Iters
	res.Stage2Iters = iters
	res.Stage1Time = s1.Time
	res.Stage2Time = stage2Time
	res.Components = len(comps)
	res.Reused = reused
	telParallelWallSeconds.Observe(stage2Time.Seconds())
	telSerialSolveSeconds.Observe(serial.Seconds())
	telStage2Seconds.Observe((res.Stage2Time + res.TruncateTime + res.AdjustTime).Seconds())
	if cache == nil {
		return res, nil, nil
	}

	telIncrReused.Add(int64(reused))
	telIncrDirty.Add(int64(len(comps) - reused))
	if cfg.Solver.Tracer != nil {
		cfg.Solver.Tracer.Event("schedule.incremental",
			telemetry.KV("components", len(comps)),
			telemetry.KV("reused", reused))
	}
	next = &PlanCache{ZStar: zstar, Plans: make(map[string]*ComponentPlan, len(comps))}
	for i, c := range comps {
		next.Plans[c.Key] = &ComponentPlan{
			Key:         c.Key,
			Inst:        c.Inst,
			ZStarC:      s1s[i].ZStar,
			LadderAlpha: lads[i].alpha,
			SolvedAlpha: alpha,
			Frac:        lads[i].frac,
		}
	}
	return res, next, nil
}

// stage1Min solves stage 1 per component on the worker pool and merges:
// Z* = min over components (the optimum of a single model: the common scale
// is limited by the tightest block). A component with a cached plan
// contributes its cached optimum instead of a solve; the per-component
// results come back beside the merged one.
func stage1Min(comps []*Component, known []*ComponentPlan, cfg Config) (*Stage1Result, []*Stage1Result, error) {
	wall := time.Now()
	s1s := make([]*Stage1Result, len(comps))
	err := runComponents(len(comps), cfg.Parallelism, func(i int) (err error) {
		if known[i] != nil {
			s1s[i] = &Stage1Result{ZStar: known[i].ZStarC}
			return nil
		}
		s1s[i], err = Stage1ZStar(comps[i].Inst, cfg.Solver)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	merged := &Stage1Result{ZStar: s1s[0].ZStar, Time: time.Since(wall)}
	var serial time.Duration
	for _, r := range s1s {
		if r.ZStar < merged.ZStar {
			merged.ZStar = r.ZStar
		}
		merged.Iters += r.Iters
		serial += r.Time
	}
	telStage1ZStar.Set(merged.ZStar)
	telParallelWallSeconds.Observe(merged.Time.Seconds())
	telSerialSolveSeconds.Observe(serial.Seconds())
	return merged, s1s, nil
}

// endStage2 closes a schedule.stage2 span with the outcome of the work it
// enclosed: stage-2 solves over each component of the partition. A no-op on
// the zero Span of a solve that read its plan off the master.
func endStage2(sp telemetry.Span, res *Result, err error, inst *Instance, comps []*Component) {
	endSpan(sp, err, func() []telemetry.Attr {
		rows, dropped := capRowCounts(inst, comps)
		return []telemetry.Attr{
			telemetry.KV("alpha", res.Alpha),
			telemetry.KV("iters", res.Stage2Iters),
			telemetry.KV("components", res.Components),
			telemetry.KV("lp_throughput", res.LP.WeightedThroughput()),
			telemetry.KV("lpdar_throughput", res.LPDAR.WeightedThroughput()),
			telemetry.KV("cap_rows", rows),
			telemetry.KV("cap_rows_dropped", dropped),
		}
	})
}

// warmFeasibleAlpha walks the Remark-1 α ladder with warm-started
// feasibility probes on one reusable model and returns the α the outer
// loop should jump to: the first α whose probe was feasible (the cold
// re-solve there extracts the schedule), or the last probed α when every
// probe failed or the solver hiccuped (the cold re-solve is then
// authoritative). It returns the starting alpha unchanged when no probe
// could run. The α accumulation mirrors the cold ladder exactly so the
// reported Result.Alpha is bit-identical.
func warmFeasibleAlpha(inst *Instance, zstar, alpha float64, basis *lp.Basis, cfg Config) float64 {
	m, zvars, _, _, err := buildStage2Model(inst, zstar, alpha, cfg.Weight, inst.closedCells())
	if err != nil {
		return alpha
	}
	opts := cfg.Solver
	opts.CaptureBasis = true
	a := alpha
	for cfg.AlphaGrowth > 0 && a+cfg.AlphaGrowth <= maxAlpha {
		a += cfg.AlphaGrowth
		telStage2AlphaRetries.Inc()
		floor := (1 - a) * zstar
		if floor < 0 {
			floor = 0
		}
		for _, zv := range zvars {
			m.SetBounds(zv, floor, lp.Inf)
		}
		opts.WarmStart = basis
		sol, err := m.SolveWith(opts)
		if err != nil {
			return a
		}
		if sol.Basis != nil {
			basis = sol.Basis
		}
		if cfg.Solver.Tracer != nil {
			cfg.Solver.Tracer.Event("schedule.stage2_alpha_retry",
				telemetry.KV("alpha", a-cfg.AlphaGrowth),
				telemetry.KV("next_alpha", a),
				telemetry.KV("warm", true),
				telemetry.KV("status", sol.Status.String()))
		}
		switch sol.Status {
		case lp.Optimal:
			return a
		case lp.Infeasible:
			continue
		default:
			return a
		}
	}
	return a
}

// buildStage2Model assembles the stage-2 program (eqs. 7–10 without the
// integrality constraint) and returns the model together with the Z and x
// variable maps. The coupling rows are the first rows of the model (row k
// is job k's) — the layout the column-generation pricer relies on; the
// capacity rows follow, laid out by cells, or every one of them when cells is
// nil, and then the returned map records the row of each loaded (edge, slice)
// (addCapacityRows).
func buildStage2Model(inst *Instance, zstar, alpha float64, weight WeightFunc, cells *capCells) (*lp.Model, []lp.VarID, flowVars, map[capKey]lp.RowID, error) {
	weights, err := stage2Weights(inst, weight)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	m := lp.NewModel("stage2", lp.Maximize)
	// Z_i variables with the fairness floor (9) as a lower bound. The
	// objective (7) weights each Z_i by w_i/Σw (w_i = D_i by default).
	floor := (1 - alpha) * zstar
	if floor < 0 {
		floor = 0
	}
	zvars := make([]lp.VarID, inst.NumJobs())
	for k, jb := range inst.Jobs {
		zvars[k] = m.AddVar(fmt.Sprintf("Z_%d", jb.ID), floor, lp.Inf, weights[k])
	}
	xvars, err := addFlowVars(m, inst, nil, 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Coupling (8): Σ x·LEN = Z_i·D_i.
	for k, jb := range inst.Jobs {
		r := m.AddRow(fmt.Sprintf("job%d", jb.ID), lp.EQ, 0)
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			m.AddTerm(r, v, inst.Grid.Len(j))
		})
		m.AddTerm(r, zvars[k], -jb.Size)
	}
	return m, zvars, xvars, addCapacityRows(m, inst, xvars, cells), nil
}

// stage2Weights returns each job's coefficient in objective (7): w_i/Σw.
func stage2Weights(inst *Instance, weight WeightFunc) ([]float64, error) {
	if inst.TotalDemand() <= 0 {
		return nil, fmt.Errorf("schedule: stage 2: no demand")
	}
	if weight == nil {
		weight = WeightBySize
	}
	weights := make([]float64, inst.NumJobs())
	wsum := 0.0
	for k, jb := range inst.Jobs {
		weights[k] = weight(jb)
		wsum += weights[k]
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("schedule: stage 2: non-positive total weight")
	}
	for k := range weights {
		weights[k] /= wsum
	}
	return weights, nil
}

// integerize turns a fractional stage-2 plan into the three variants the
// paper compares: the plan itself, its truncation (LPD) and the truncation
// after the greedy adjustment pass (LPDAR).
func integerize(frac *Assignment, cfg Config) *Result {
	sp := cfg.Solver.Tracer.Start("schedule.integerize")
	truncStart := time.Now()
	lpd := frac.Truncate()
	truncTime := time.Since(truncStart)
	adjStart := time.Now()
	lpdar := AdjustRates(lpd, VerbatimAdjust)
	adjTime := time.Since(adjStart)
	sp.End()
	return &Result{LP: frac, LPD: lpd, LPDAR: lpdar, TruncateTime: truncTime, AdjustTime: adjTime}
}

// solveStage2Frac builds and solves the fractional stage-2 LP, returning
// the extracted assignment on an Optimal outcome and the status/basis
// otherwise. The solve ends with the lexicographic Quick-Finish phase
// (stage2Secondary), so the plan is a function of the LP and not of the
// solve that produced it: cold or up the α ladder, whole or per component,
// this one or the priced master of a ColumnGen instance.
func solveStage2Frac(inst *Instance, zstar, alpha float64, cfg Config) (*Assignment, lp.Status, *lp.Basis, int, error) {
	m, _, xvars, _, err := buildStage2Model(inst, zstar, alpha, cfg.Weight, inst.closedCells())
	if err != nil {
		return nil, lp.Infeasible, nil, 0, err
	}
	opts := cfg.Solver
	if cfg.WarmStart {
		opts.CaptureBasis = true // snapshot-only: the solve itself is unchanged
	}
	opts.Secondary = stage2Secondary(inst, m, xvars)
	sol, err := m.SolveWith(opts)
	if err != nil {
		return nil, lp.Numerical, nil, 0, fmt.Errorf("schedule: stage 2: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, sol.Status, sol.Basis, sol.Iters, nil
	}
	return extractAssignment(inst, xvars, sol), lp.Optimal, sol.Basis, sol.Iters, nil
}

// rung is where one component stands on the Remark-1 α ladder: the first
// feasible α, its fractional optimum there (until the re-solve at the global
// α replaces it), and what reaching it cost. cached marks a component whose α
// came from the PlanCache without a solve, reused one whose plan did too.
type rung struct {
	alpha          float64
	frac           *Assignment
	iters          int
	dur            time.Duration
	cached, reused bool
}

// stage2Ladder walks one component up the Remark-1 α ladder and returns
// the first feasible α with its fractional optimum. Every component's
// ladder accumulates α the same way, so all visit one float sequence and
// the max over components is a single model's stopping point bit for bit.
func stage2Ladder(inst *Instance, zstar float64, cfg Config) (rung, error) {
	start := time.Now()
	r := rung{alpha: cfg.Alpha}
	warmProbed := false
	for {
		frac, status, basis, it, err := solveStage2Frac(inst, zstar, r.alpha, cfg)
		r.iters += it
		r.dur = time.Since(start)
		if err != nil {
			return r, err
		}
		if status == lp.Optimal {
			r.frac = frac
			return r, nil
		}
		if status == lp.Infeasible && cfg.AlphaGrowth > 0 && r.alpha+cfg.AlphaGrowth <= maxAlpha {
			if cfg.WarmStart && !warmProbed {
				// Fast-forward the ladder with warm status-only probes,
				// then re-solve cold at the α they land on.
				warmProbed = true
				if jump := warmFeasibleAlpha(inst, zstar, r.alpha, basis, cfg); jump > r.alpha {
					r.alpha = jump
					continue
				}
			}
			telStage2AlphaRetries.Inc()
			if cfg.Solver.Tracer != nil {
				cfg.Solver.Tracer.Event("schedule.stage2_alpha_retry",
					telemetry.KV("alpha", r.alpha),
					telemetry.KV("next_alpha", r.alpha+cfg.AlphaGrowth))
			}
			r.alpha += cfg.AlphaGrowth // Remark 1: increase α and retry
			continue
		}
		return r, fmt.Errorf("schedule: stage 2: solver returned %v (alpha=%g)", status, r.alpha)
	}
}
