package schedule

import (
	"fmt"
	"math"
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
	// Monolithic makes the partition the solve runs over the instance
	// itself, one LP over all jobs, even when it decomposes into independent
	// components (see Decompose) — the reference the decomposed solve, which
	// is the default, is compared against.
	Monolithic bool
	// Parallelism bounds the worker pool for per-component solves; ≤ 0
	// selects GOMAXPROCS. The merge order is fixed by component order, so
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

	Stage1Iters  int // summed over the blocks stage 1 solved (see stage1Min)
	Stage2Iters  int
	Stage1Time   time.Duration
	Stage2Time   time.Duration
	TruncateTime time.Duration // LPD truncation
	AdjustTime   time.Duration // LPDAR greedy pass (after truncation)

	// Components is the number of independent blocks the solve ran over
	// (1 for a fully coupled instance or under Config.Monolithic).
	Components int

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
	return maxThroughput(inst, nil, cfg, nil)
}

// MaxThroughputWithZ runs stage 2 for an already-computed stage-1 result.
// Only s1.ZStar, Iters, and Time are consulted. Over the instance's own Z*
// the floor at any α is feasible (stage 1's optimum meets it); a larger Z*,
// such as one solved on a healthier topology, can overcommit the floor,
// which the Remark-1 α ladder then loosens.
func MaxThroughputWithZ(inst *Instance, s1 *Stage1Result, cfg Config) (*Result, error) {
	return maxThroughput(inst, s1, cfg, nil)
}

// maxThroughput is the Section II-B pipeline over the instance's partition,
// the one body behind MaxThroughput and MaxThroughputWithZ: stage 1 per
// component and Z* = min (skipped when s1 is given); the Remark-1 α ladder
// per component and α = max — the first α at which every block is feasible,
// exactly where a single model's ladder stops, since block feasibility is
// monotone in α and every ladder steps through the same float sequence; a
// re-solve at α of the components that settled below it; the merge; LPD and
// LPDAR over the whole network. With a carry, every stage-2 solve starts
// from what it holds of the component's jobs, and the carry then holds the
// components' final bases.
func maxThroughput(inst *Instance, s1 *Stage1Result, cfg Config, carry *Stage2Carry) (res *Result, err error) {
	cfg = cfg.withDefaults()
	dsp := cfg.Solver.Tracer.Start("schedule.decompose")
	comps := partition(inst, nil, cfg.Monolithic)
	endDecompose(dsp, inst, comps)

	if s1 == nil {
		if s1, err = stage1Min(comps, cfg); err != nil {
			return nil, err
		}
	}
	zstar := s1.ZStar

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

	wall := time.Now()
	lads := make([]rung, len(comps))
	err = runComponents(len(comps), cfg.Parallelism, func(i int) (err error) {
		switch {
		case mp != nil:
			telStage2MasterPlans.Inc()
			lads[i] = rung{alpha: cfg.Alpha, frac: mp.frac, iters: mp.iters, dur: mp.dur}
		default:
			lads[i], err = stage2Ladder(comps[i].Inst, zstar, cfg, carry)
		}
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
	// Final fractional solutions at the global α. A component that settled
	// below it is re-solved there: a single model would have applied the
	// floor (1−α)·Z* to every job, and a larger α only loosens the floor, so
	// the re-solve stays feasible.
	err = runComponents(len(comps), cfg.Parallelism, func(i int) error {
		l := &lads[i]
		if l.alpha == alpha {
			return nil
		}
		start := time.Now()
		sol, err := solveStage2Frac(comps[i].Inst, zstar, alpha, cfg, carry, l.final.basis)
		if err != nil {
			return err
		}
		if sol.status != lp.Optimal {
			return fmt.Errorf("schedule: stage 2: component re-solve at alpha=%g returned %v", alpha, sol.status)
		}
		l.frac, l.final = sol.frac, sol.final
		l.iters += sol.iters
		l.dur += time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	stage2Time := time.Since(wall)
	if mp != nil {
		stage2Time = mp.dur // what the plan cost is the master's solve
	}

	fracs := make([]*Assignment, len(comps))
	iters := 0
	var serial time.Duration
	for i, l := range lads {
		fracs[i] = l.frac
		iters += l.iters
		serial += l.dur
	}
	if carry != nil && mp == nil {
		carry.record(inst.Grid, lads)
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
	telParallelWallSeconds.Observe(stage2Time.Seconds())
	telSerialSolveSeconds.Observe(serial.Seconds())
	telStage2Seconds.Observe((res.Stage2Time + res.TruncateTime + res.AdjustTime).Seconds())
	return res, nil
}

// stage1PruneMargin is the relative gap by which a block's stage-1 lower
// bound must exceed the first solved block's Z* before stage1Min skips it:
// far outside the solver's tolerance, so a skipped block could not have
// reported a smaller Z*_c.
const stage1PruneMargin = 1e-3

// stage1Min solves stage 1 per component and merges: Z* = min over
// components (the optimum of a single model: the common scale is limited by
// the tightest block). Only a block that can set that minimum is solved. A
// partition of several blocks goes in two rounds: the block of lowest
// stage1Bound first (ties: lowest index), then, on the worker pool, every
// other block whose bound is not above (1 + stage1PruneMargin)·Z*_first. A
// skipped block has Z*_c ≥ bound > Z*_first, so the minimum keeps its bits;
// the solved set is a function of the instance, not of worker timing.
func stage1Min(comps []*Component, cfg Config) (*Stage1Result, error) {
	wall := time.Now()
	s1s := make([]*Stage1Result, len(comps))
	solve := func(i int) (err error) {
		s1s[i], err = Stage1ZStar(comps[i].Inst, cfg.Solver)
		return err
	}
	rest := []int{0}
	if len(comps) > 1 {
		bounds := stage1Bounds(comps)
		first := 0
		for i, b := range bounds {
			if b < bounds[first] {
				first = i
			}
		}
		if err := solve(first); err != nil {
			return nil, err
		}
		zFirst := s1s[first].ZStar
		rest = nil
		for i, b := range bounds {
			switch {
			case i == first:
			case b <= (1+stage1PruneMargin)*zFirst:
				rest = append(rest, i)
			default:
				cfg.Solver.Tracer.Event("schedule.stage1_pruned",
					telemetry.KV("component", comps[i].Key),
					telemetry.KV("bound", b),
					telemetry.KV("first_zstar", zFirst))
			}
		}
	}
	if err := runComponents(len(rest), cfg.Parallelism, func(n int) error { return solve(rest[n]) }); err != nil {
		return nil, err
	}
	merged := &Stage1Result{ZStar: math.Inf(1), Time: time.Since(wall)}
	var serial time.Duration
	for _, r := range s1s {
		if r == nil {
			continue
		}
		if r.ZStar < merged.ZStar {
			merged.ZStar = r.ZStar
		}
		merged.Iters += r.Iters
		serial += r.Time
	}
	telStage1ZStar.Set(merged.ZStar)
	telParallelWallSeconds.Observe(merged.Time.Seconds())
	telSerialSolveSeconds.Observe(serial.Seconds())
	return merged, nil
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

// buildStage2Model assembles the stage-2 program (eqs. 7–10 without the
// integrality constraint) and returns the model together with the Z and x
// variable maps. The coupling rows are the first rows of the model (row k
// is job k's) — the layout the column-generation pricer relies on; the
// capacity rows follow, laid out by cells, or every one of them when cells is
// nil, and then the returned map records the row of each loaded (edge, slice)
// (addCapacityRows).
func buildStage2Model(inst *Instance, zstar, alpha float64, weight WeightFunc, cells *capCells) (*lp.Model, []lp.VarID, flowVars, *capCells, error) {
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
	for k := range inst.Jobs {
		zvars[k] = m.AddVar("", floor, lp.Inf, weights[k])
	}
	xvars, err := addFlowVars(m, inst, nil, 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Coupling (8): Σ x·LEN = Z_i·D_i.
	for k, jb := range inst.Jobs {
		r := m.AddRow("", lp.EQ, 0)
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

// stage2Solve is the outcome of one stage-2 solve: the extracted assignment
// on an Optimal outcome, the status, the pivots, and — when a carry asked
// for it — the model as the carry keeps it, its final basis included.
type stage2Solve struct {
	frac   *Assignment
	status lp.Status
	iters  int
	final  stage2Model
}

// solveStage2Frac builds and solves the fractional stage-2 LP. With a
// carry it captures the final basis and starts from warm, or, when warm is
// nil, from what the carry holds of inst's jobs. The solve ends with the
// lexicographic Quick-Finish phase (stage2Secondary), so the plan is a
// function of the LP and not of the solve that produced it: cold, warm or up
// the α ladder, whole or per component, this one or the priced master of a
// ColumnGen instance.
func solveStage2Frac(inst *Instance, zstar, alpha float64, cfg Config, carry *Stage2Carry, warm *lp.Basis) (stage2Solve, error) {
	cells := inst.closedCells()
	m, _, xvars, _, err := buildStage2Model(inst, zstar, alpha, cfg.Weight, cells)
	if err != nil {
		return stage2Solve{status: lp.Infeasible}, err
	}
	opts := cfg.Solver
	opts.Secondary = stage2Secondary(inst, m, xvars)
	if carry != nil {
		opts.CaptureBasis, opts.WarmStart = true, warm
		if warm == nil {
			opts.WarmStart = carry.start(inst, m, xvars, cells)
		}
	}
	sol, err := m.SolveWith(opts)
	if err != nil {
		return stage2Solve{status: lp.Numerical}, fmt.Errorf("schedule: stage 2: %w", err)
	}
	out := stage2Solve{status: sol.Status, iters: sol.Iters, final: stage2Model{
		inst: inst, xv: xvars, cells: cells, nVars: m.NumVars(), nRows: m.NumRows(), basis: sol.Basis,
	}}
	if sol.Status == lp.Optimal {
		out.frac = extractAssignment(inst, xvars, sol)
	}
	return out, nil
}

// rung is where one component stands on the Remark-1 α ladder: the first
// feasible α, its fractional optimum there (until the re-solve at the global
// α replaces it), what reaching it cost, and the model of its last solve.
type rung struct {
	alpha float64
	frac  *Assignment
	iters int
	dur   time.Duration
	final stage2Model
}

// stage2Ladder walks one component up the Remark-1 α ladder and returns
// the first feasible α with its fractional optimum. Every component's
// ladder accumulates α the same way, so all visit one float sequence and
// the max over components is a single model's stopping point bit for bit.
// With a carry, each rung after the first starts from the basis the last
// one ended on.
func stage2Ladder(inst *Instance, zstar float64, cfg Config, carry *Stage2Carry) (rung, error) {
	start := time.Now()
	r := rung{alpha: cfg.Alpha}
	for {
		sol, err := solveStage2Frac(inst, zstar, r.alpha, cfg, carry, r.final.basis)
		r.iters += sol.iters
		r.dur = time.Since(start)
		if err != nil {
			return r, err
		}
		r.final = sol.final
		if sol.status == lp.Optimal {
			r.frac = sol.frac
			return r, nil
		}
		if sol.status == lp.Infeasible && cfg.AlphaGrowth > 0 && r.alpha+cfg.AlphaGrowth <= maxAlpha {
			telStage2AlphaRetries.Inc()
			if cfg.Solver.Tracer != nil {
				cfg.Solver.Tracer.Event("schedule.stage2_alpha_retry",
					telemetry.KV("alpha", r.alpha),
					telemetry.KV("next_alpha", r.alpha+cfg.AlphaGrowth))
			}
			r.alpha += cfg.AlphaGrowth // Remark 1: increase α and retry
			continue
		}
		return r, fmt.Errorf("schedule: stage 2: solver returned %v (alpha=%g)", sol.status, r.alpha)
	}
}
