package schedule

import (
	"fmt"
	"time"

	"wavesched/internal/lp"
	"wavesched/internal/telemetry"
)

// Config tunes the two-stage maximizing-throughput algorithm.
type Config struct {
	// Alpha is the fairness slack in constraint (9): every job's
	// throughput must reach (1−Alpha)·Z*. The paper uses 0.1.
	Alpha float64
	// AlphaGrowth: if the stage-2 LP is infeasible at Alpha (possible for
	// very tight instances), Alpha is increased by this additive step and
	// the LP retried, per the paper's Remark 1. Zero disables retries.
	AlphaGrowth float64
	// MaxAlpha bounds the retries; default 1 (no fairness floor at all).
	MaxAlpha float64
	// Solver passes through to the simplex.
	Solver lp.Options
	// Adjust tunes the LPDAR greedy pass; the zero value is the paper's
	// verbatim Algorithm 1.
	Adjust AdjustOptions
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
	// Monolithic forces one LP over all jobs even when the instance
	// decomposes into independent components (see Decompose) — the A/B
	// switch for comparing against the decomposed parallel path, which
	// is the default.
	Monolithic bool
	// Parallelism bounds the worker pool for per-component solves; ≤ 0
	// selects NumCPU. The merge order is fixed by component order, so
	// any parallelism level produces identical results.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.MaxAlpha == 0 {
		c.MaxAlpha = 1
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

	// Components is the number of independent blocks the instance was
	// decomposed into (1 for a monolithic solve or a fully coupled
	// instance).
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
// LPDAR integerization. When the instance decomposes into independent
// components (and Config.Monolithic is off), both stages are solved per
// component on a worker pool: Z* is the minimum of the component optima
// and the stage-2 floor (1−α)·Z* makes stage 2 separable given that
// global Z*, so the merged schedule matches the monolithic solve.
func MaxThroughput(inst *Instance, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	comps := decomposeFor(inst, cfg.Monolithic, nil)
	if len(comps) > 1 {
		return maxThroughputDecomposed(inst, comps, cfg)
	}
	observeComponents(comps)
	s1, err := Stage1ZStar(inst, cfg.Solver)
	if err != nil {
		return nil, err
	}
	return maxThroughputWithZMono(inst, s1, cfg)
}

// decomposeFor returns the instance's components unless monolithic
// solving is forced.
func decomposeFor(inst *Instance, monolithic bool, extLast []int) []*Component {
	if monolithic {
		return nil
	}
	return Decompose(inst, extLast)
}

// maxThroughputDecomposed runs stage 1 per component in parallel, merges
// Z* = min over components (the monolithic optimum: the common scale is
// limited by the tightest block), and continues with decomposed stage 2.
func maxThroughputDecomposed(inst *Instance, comps []*Component, cfg Config) (*Result, error) {
	wall := time.Now()
	s1s := make([]*Stage1Result, len(comps))
	err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
		r, err := SolveStage1(comps[i].Inst, cfg.Solver)
		s1s[i] = r
		return err
	})
	if err != nil {
		return nil, err
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
	return stage2Decomposed(inst, comps, merged, cfg)
}

// MaxThroughputWithZ runs stage 2 for an already-computed stage-1 result.
// Only s1.ZStar, Iters, and Time are consulted, so a stage-1 result from
// a different (e.g. healthier) topology is acceptable — the controller's
// degraded-mode situation.
func MaxThroughputWithZ(inst *Instance, s1 *Stage1Result, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	comps := decomposeFor(inst, cfg.Monolithic, nil)
	if len(comps) > 1 {
		return stage2Decomposed(inst, comps, s1, cfg)
	}
	observeComponents(comps)
	return maxThroughputWithZMono(inst, s1, cfg)
}

// maxThroughputWithZMono is the single-model stage-2 path: the plan the
// priced master left on the instance when it answers this very LP, the α
// ladder over the whole instance otherwise.
func maxThroughputWithZMono(inst *Instance, s1 *Stage1Result, cfg Config) (*Result, error) {
	res, err := stage2Mono(inst, s1.ZStar, cfg)
	if err != nil {
		return nil, err
	}
	res.ZStar = s1.ZStar
	res.Stage1Iters = s1.Iters
	res.Stage1Time = s1.Time
	telStage2Seconds.Observe((res.Stage2Time + res.TruncateTime + res.AdjustTime).Seconds())
	return res, nil
}

// stage2Mono returns the integerized single-model stage-2 result: plans,
// α, plan source and stage-2 cost.
func stage2Mono(inst *Instance, zstar float64, cfg Config) (res *Result, err error) {
	if mp := inst.planFor(zstar, cfg.Alpha, cfg.Weight); mp != nil {
		telStage2MasterPlans.Inc()
		res = integerize(mp.frac, cfg)
		res.Alpha, res.Plan, res.Components = cfg.Alpha, PlanMaster, 1
		res.Stage2Iters, res.Stage2Time = mp.iters, mp.dur
		return res, nil
	}
	sp := cfg.Solver.Tracer.Start("schedule.stage2")
	cfg.Solver.Tracer = sp.Tracer()
	defer func() { endStage2(sp, res, err, inst, nil) }()
	alpha := cfg.Alpha
	warmProbed := false
	for {
		r, status, basis, err := solveStage2(inst, zstar, alpha, cfg)
		if err != nil {
			return nil, err
		}
		if status == lp.Optimal {
			r.Alpha, r.Plan, r.Components = alpha, PlanCold, 1
			return r, nil
		}
		if status == lp.Infeasible && cfg.AlphaGrowth > 0 && alpha+cfg.AlphaGrowth <= cfg.MaxAlpha {
			if cfg.WarmStart && !warmProbed {
				// Fast-forward the ladder with warm status-only probes,
				// then re-solve cold at the α they land on.
				warmProbed = true
				if jump := warmFeasibleAlpha(inst, zstar, alpha, basis, cfg); jump > alpha {
					alpha = jump
					continue
				}
			}
			telStage2AlphaRetries.Inc()
			if cfg.Solver.Tracer != nil {
				cfg.Solver.Tracer.Event("schedule.stage2_alpha_retry",
					telemetry.KV("alpha", alpha),
					telemetry.KV("next_alpha", alpha+cfg.AlphaGrowth))
			}
			alpha += cfg.AlphaGrowth // Remark 1: increase α and retry
			continue
		}
		return nil, fmt.Errorf("schedule: stage 2: solver returned %v (alpha=%g)", status, alpha)
	}
}

// endStage2 closes a schedule.stage2 span with the outcome of the work it
// enclosed: stage-2 solves over the whole instance (comps nil) or over each
// of its components.
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
	m, zvars, _, _, err := buildStage2Model(inst, zstar, alpha, cfg.Weight, true)
	if err != nil {
		return alpha
	}
	opts := cfg.Solver
	opts.Presolve = false // presolve would disable basis capture
	opts.CaptureBasis = true
	a := alpha
	for cfg.AlphaGrowth > 0 && a+cfg.AlphaGrowth <= cfg.MaxAlpha {
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
// is job k's), and the returned map records the capacity row of each
// loaded (edge, slice) — the layout the column-generation pricer relies
// on. closed says that no column will be appended to the model: it is then
// built without the dominated capacity rows and the map is nil
// (addCapacityRows).
func buildStage2Model(inst *Instance, zstar, alpha float64, weight WeightFunc, closed bool) (*lp.Model, []lp.VarID, flowVars, map[capKey]lp.RowID, error) {
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
	return m, zvars, xvars, addCapacityRows(m, inst, xvars, closed), nil
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

// solveStage2 builds and solves the stage-2 LP (eqs. 7–10 without
// integrality), then integerizes. The returned basis (captured only in
// WarmStart mode) seeds the α-ladder probes after an infeasible outcome.
func solveStage2(inst *Instance, zstar, alpha float64, cfg Config) (*Result, lp.Status, *lp.Basis, error) {
	start := time.Now()
	frac, status, basis, iters, err := solveStage2Frac(inst, zstar, alpha, cfg)
	if err != nil {
		return nil, status, nil, err
	}
	if status != lp.Optimal {
		return nil, status, basis, nil
	}
	stage2Time := time.Since(start)
	res := integerize(frac, cfg)
	res.Stage2Iters, res.Stage2Time = iters, stage2Time
	return res, lp.Optimal, basis, nil
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
	lpdar := AdjustRates(lpd, cfg.Adjust)
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
	m, _, xvars, _, err := buildStage2Model(inst, zstar, alpha, cfg.Weight, true)
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

// stage2Decomposed runs the Remark-1 α ladder per component, lifts the
// fairness slack to the maximum over components (the first α at which
// every block is feasible — exactly where the monolithic ladder stops,
// since block feasibility is monotone in α and the ladder steps are the
// same float sequence), re-solves the components that were feasible at a
// smaller α, and integerizes the merged fractional solution globally.
func stage2Decomposed(inst *Instance, comps []*Component, s1 *Stage1Result, cfg Config) (res *Result, err error) {
	type ladder struct {
		alpha float64
		frac  *Assignment
		iters int
		dur   time.Duration
	}
	sp := cfg.Solver.Tracer.Start("schedule.stage2")
	cfg.Solver.Tracer = sp.Tracer()
	defer func() { endStage2(sp, res, err, inst, comps) }()
	wall := time.Now()
	lads := make([]ladder, len(comps))
	err = runComponents(len(comps), cfg.Parallelism, func(i int) error {
		a, frac, iters, dur, err := stage2Ladder(comps[i].Inst, s1.ZStar, cfg)
		lads[i] = ladder{alpha: a, frac: frac, iters: iters, dur: dur}
		return err
	})
	if err != nil {
		return nil, err
	}
	alpha := lads[0].alpha
	for _, l := range lads[1:] {
		if l.alpha > alpha {
			alpha = l.alpha
		}
	}
	// Components that settled below the global α must be re-solved there:
	// the monolithic LP would have applied the higher floor (1−α)·Z* to
	// every job. A larger α only loosens the floor, so these re-solves
	// stay feasible.
	err = runComponents(len(comps), cfg.Parallelism, func(i int) error {
		if lads[i].alpha == alpha {
			return nil
		}
		start := time.Now()
		frac, status, _, iters, err := solveStage2Frac(comps[i].Inst, s1.ZStar, alpha, cfg)
		if err != nil {
			return err
		}
		if status != lp.Optimal {
			return fmt.Errorf("schedule: stage 2: component re-solve at alpha=%g returned %v", alpha, status)
		}
		lads[i].frac = frac
		lads[i].iters += iters
		lads[i].dur += time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	stage2Time := time.Since(wall)

	fracs := make([]*Assignment, len(comps))
	iters := 0
	var serial time.Duration
	for i, l := range lads {
		fracs[i] = l.frac
		iters += l.iters
		serial += l.dur
	}
	res = integerize(mergeAssignments(inst, comps, fracs), cfg)
	res.ZStar = s1.ZStar
	res.Alpha, res.Plan = alpha, PlanCold
	res.Stage1Iters = s1.Iters
	res.Stage2Iters = iters
	res.Stage1Time = s1.Time
	res.Stage2Time = stage2Time
	res.Components = len(comps)
	observeDecomposition(comps, stage2Time.Seconds(), serial.Seconds())
	telStage2Seconds.Observe((res.Stage2Time + res.TruncateTime + res.AdjustTime).Seconds())
	return res, nil
}

// stage2Ladder walks one component up the Remark-1 α ladder and returns
// the first feasible α with its fractional optimum. The α accumulation
// mirrors maxThroughputWithZMono exactly, so every component's ladder
// visits the same float sequence and the max over components is the
// monolithic stopping point bit for bit.
func stage2Ladder(inst *Instance, zstar float64, cfg Config) (float64, *Assignment, int, time.Duration, error) {
	start := time.Now()
	alpha := cfg.Alpha
	warmProbed := false
	iters := 0
	for {
		frac, status, basis, it, err := solveStage2Frac(inst, zstar, alpha, cfg)
		iters += it
		if err != nil {
			return alpha, nil, iters, time.Since(start), err
		}
		if status == lp.Optimal {
			return alpha, frac, iters, time.Since(start), nil
		}
		if status == lp.Infeasible && cfg.AlphaGrowth > 0 && alpha+cfg.AlphaGrowth <= cfg.MaxAlpha {
			if cfg.WarmStart && !warmProbed {
				warmProbed = true
				if jump := warmFeasibleAlpha(inst, zstar, alpha, basis, cfg); jump > alpha {
					alpha = jump
					continue
				}
			}
			telStage2AlphaRetries.Inc()
			if cfg.Solver.Tracer != nil {
				cfg.Solver.Tracer.Event("schedule.stage2_alpha_retry",
					telemetry.KV("alpha", alpha),
					telemetry.KV("next_alpha", alpha+cfg.AlphaGrowth))
			}
			alpha += cfg.AlphaGrowth // Remark 1: increase α and retry
			continue
		}
		return alpha, nil, iters, time.Since(start), fmt.Errorf("schedule: stage 2: solver returned %v (alpha=%g)", status, alpha)
	}
}
