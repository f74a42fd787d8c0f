package schedule

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
)

// Algorithm 2's fixed parameters.
const (
	retEps       = 0.01 // binary-search precision on b
	retDelta     = 0.1  // δ: additive extension when LPDAR falls short (the paper's value)
	retMaxRounds = 200  // bound on the δ-extension loop
)

// retGamma is the paper's Quick-Finish cost γ(j) = j+1 (eq. 14).
func retGamma(j int) float64 { return float64(j + 1) }

// RETConfig tunes the Relaxing-End-Times algorithm (Algorithm 2). Deadlines
// stretch by end-time scaling from the scheduling origin, E_i → (1+b)·E_i
// (eq. 16), and the LPDAR greedy pass is RETAdjust (deficit-first,
// demand-capped), which guarantees the δ-loop makes progress on dense
// networks. The binary search on b runs one way, whatever the config: see
// retSearch.
type RETConfig struct {
	BMax float64 // search ceiling for the extension factor b; default 10
	// Solver passes through to the simplex.
	Solver lp.Options
	// WarmStart is ignored: every search chains its probes.
	//
	// Deprecated: ignored. The daemon-epoch benchmark (bench/) is its only
	// reader.
	WarmStart bool
	// Certificates is ignored: every search prunes its probes.
	//
	// Deprecated: ignored. The daemon-epoch benchmark (bench/) is its only
	// reader.
	Certificates bool
	// Monolithic makes the partition the instance itself — one SUB-RET model
	// over all jobs — even when it decomposes into independent components
	// at BMax windows: the reference the decomposed solve (the default) is
	// compared against.
	Monolithic bool
	// Parallelism bounds the worker pool for per-component binary
	// searches and δ-round solves; ≤ 0 selects GOMAXPROCS.
	Parallelism int
	// OnProbe, when non-nil, receives every feasibility probe of the
	// binary search as it happens — including probes whose solve failed,
	// which is what makes post-mortem trajectories useful. Callbacks may
	// arrive concurrently from the per-component worker pool, so the
	// function must be safe for concurrent use.
	OnProbe func(ProbeStep)
}

// ProbeStage labels how a feasibility probe of the RET binary search was
// answered. The values are the flight-recorder dump vocabulary.
type ProbeStage string

// Probe stages.
const (
	StageB0     ProbeStage = "b0"     // the b = 0 probe, answered by a fresh per-b solve
	StageBMax   ProbeStage = "bmax"   // the b = BMax ceiling probe (the extraction chain's seed solve)
	StageBisect ProbeStage = "bisect" // a bisection midpoint, answered by a solve
	StagePruned ProbeStage = "pruned" // answered without a solve: see ProbeStep.Cert
)

// How a pruned probe was answered, recorded in ProbeStep.Cert.
const (
	CertWindow = "window" // window memo: same quantized windows as an earlier probe
	CertPoint  = "point"  // the last feasible plan fits inside the probe's windows
	CertBound  = "bound"  // the interval bound refutes the probe (retBound)
)

// ProbeStep is one feasibility probe of the RET binary search, recorded
// on RETResult.Probes and delivered to RETConfig.OnProbe. The JSON tags
// are the flight-recorder dump format.
type ProbeStep struct {
	Component string     `json:"component,omitempty"` // Component.Key of the block probed (all job IDs when the instance is one block)
	B         float64    `json:"b"`
	Stage     ProbeStage `json:"stage"`
	Feasible  bool       `json:"feasible"`
	Warm      bool       `json:"warm"`
	Cert      string     `json:"cert,omitempty"` // how a pruned probe was answered
	Iters     int        `json:"iters"`
	DurUS     float64    `json:"dur_us"`
	Err       string     `json:"err,omitempty"`
}

func (c RETConfig) withDefaults() RETConfig {
	if c.BMax == 0 {
		c.BMax = 10
	}
	// SUB-RET has no canonical optimum yet: the vertex a solve ends on, and
	// with it utilization and the δ-loop, follows the pivot path, so its
	// solves keep the start they were tuned on (DESIGN §10).
	c.Solver.ArtificialCrash = true
	return c
}

// RETResult is the outcome of Algorithm 2.
type RETResult struct {
	BHat float64 // b̂: smallest b with a feasible fractional SUB-RET
	B    float64 // final b after δ-extensions (≥ BHat)

	LP    *Assignment // fractional SUB-RET solution at B
	LPD   *Assignment // truncation of LP (typically leaves jobs unfinished)
	LPDAR *Assignment // truncation + greedy adjustment; completes all jobs

	Rounds     int // δ-extension rounds executed (0 when LPDAR succeeds at b̂)
	LPIters    int // total simplex pivots across all SUB-RET solves
	SearchTime time.Duration
	SolveTime  time.Duration

	// ProbesSolved and ProbesPruned split the search trajectory by how
	// each probe was answered: a simplex solve (stages b0/bmax/bisect)
	// versus the window memo, a window fit of the last feasible plan or the
	// interval bound (stage pruned). Their sum is the probe count.
	ProbesSolved int
	ProbesPruned int

	// Components is the number of independent blocks the solve ran over
	// (1 for a fully coupled instance or under RETConfig.Monolithic).
	Components int
	// Probes is the full binary-search trajectory, in per-component probe
	// order (component sections are contiguous; their relative order is
	// the component order, even though the searches ran in parallel).
	Probes []ProbeStep
	// JobComponents maps each instance job index to the fingerprint
	// (Component.Key) of the component it was solved in. Decision audit
	// records use it to explain which block fixed a job's schedule.
	JobComponents []string
	// BHats records each component's own b̂ by fingerprint, so a job's
	// audit trail can name the probe bound that actually constrained its
	// block (the global BHat is the max over these).
	BHats map[string]float64
}

// SolveRET runs the paper's Algorithm 2 on the instance: binary search on
// [0, BMax] for the smallest b̂ making the fractional SUB-RET feasible,
// integerize via LPDAR, and extend b by δ until the integer solution
// completes every job. The instance is partitioned at BMax-extended windows
// (one block under RETConfig.Monolithic); the binary searches run per
// component on a worker pool and b̂ = max over components of b̂_c — every
// bisection halves the same [0, BMax] interval, so the per-component b̂
// values lie on one dyadic grid and the max equals the answer of a search
// over one model of all jobs. The δ-rounds solve SUB-RET per component and
// merge before one global LPDAR pass: truncation and adjustment see the
// whole network. Should a δ-round push b past BMax — beyond the windows the
// partition was computed at, where components may re-couple — the round
// falls back to the full-instance model.
//
// The instance's grid must extend far enough to cover (1+BMax)-extended
// end times; BuildRETInstance constructs such instances.
func SolveRET(inst *Instance, cfg RETConfig) (res *RETResult, err error) {
	cfg = cfg.withDefaults()
	dsp := cfg.Solver.Tracer.Start("schedule.decompose")
	comps := partition(inst, retExtendedLast(inst, cfg.BMax), cfg.Monolithic)
	endDecompose(dsp, inst, comps)
	res = &RETResult{Components: len(comps)}
	retSpan := cfg.Solver.Tracer.Start("schedule.ret")
	// Per-component work is causally inside the RET span; each search
	// worker additionally gets its own component span below, so trace IDs
	// propagate across the worker pool.
	cfg.Solver.Tracer = retSpan.Tracer()
	tracer := cfg.Solver.Tracer
	defer func() {
		endSpan(retSpan, err, func() []telemetry.Attr {
			return []telemetry.Attr{
				telemetry.KV("jobs", inst.NumJobs()),
				telemetry.KV("components", len(comps)),
				telemetry.KV("bhat", res.BHat),
				telemetry.KV("b", res.B),
				telemetry.KV("delta_rounds", res.Rounds),
				telemetry.KV("lp_iters", res.LPIters),
				telemetry.KV("probes_solved", res.ProbesSolved),
				telemetry.KV("probes_pruned", res.ProbesPruned),
			}
		})
	}()

	states := make([]retComponent, len(comps))
	// The chains' solver memory goes back to the lp free list on every exit.
	defer func() {
		for i := range states {
			states[i].release()
		}
	}()
	searchStart := time.Now()
	err = runComponents(len(comps), cfg.Parallelism, func(i int) (err error) {
		start := time.Now()
		st, c := &states[i], comps[i]
		ccfg := cfg // per-component copy: the tracer scope differs
		compSpan := tracer.Start("schedule.ret_component")
		ccfg.Solver.Tracer = compSpan.Tracer()
		defer func() {
			st.dur = time.Since(start)
			attrs := []telemetry.Attr{
				telemetry.KV("component", c.Key),
				telemetry.KV("jobs", c.Inst.NumJobs()),
				telemetry.KV("bhat", st.bhat),
				telemetry.KV("iters", st.iters),
			}
			if err != nil {
				attrs = append(attrs, telemetry.KV("error", err.Error()))
				err = fmt.Errorf("component {%s}: %w", c.Key, err)
			}
			compSpan.End(attrs...)
		}()
		// The extraction chain's solve sequence (seed at b = BMax, then
		// incremental re-solves at b̂ and each δ-round) depends only on the
		// component and the bit-exact b̂: however the search reached b̂, the
		// schedule it extracts is the same.
		if st.chain, err = newRETChain(c.Inst, "sub-ret", ccfg); err != nil {
			return err
		}
		st.prober = newRETProber(st.chain, ccfg)
		st.bhat, st.iters, st.probes, err = retSearch(c.Inst, ccfg, st.prober, c.Key)
		return err
	})
	for i := range states {
		res.Probes = append(res.Probes, states[i].probes...)
		tallyProbes(res, states[i].probes)
	}
	if err != nil {
		return res, err
	}
	res.BHats = make(map[string]float64, len(comps))
	res.JobComponents = make([]string, inst.NumJobs())
	for i := range states {
		if states[i].bhat > res.BHat {
			res.BHat = states[i].bhat
		}
		res.LPIters += states[i].iters
		res.BHats[comps[i].Key] = states[i].bhat
		for _, k := range comps[i].JobIdx {
			res.JobComponents[k] = comps[i].Key
		}
	}
	res.SearchTime = time.Since(searchStart)

	// Step 2–5 at the global b: per-component incremental extraction
	// solves, merge, integerize, extend by δ while unfinished.
	solveStart := time.Now()
	b := res.BHat
	for round := 0; ; round++ {
		if round >= retMaxRounds {
			return nil, fmt.Errorf("schedule: RET did not complete all jobs within %d δ-extensions (b=%g)", retMaxRounds, b)
		}
		var frac *Assignment
		feasible := true
		if b <= cfg.BMax {
			fracs := make([]*Assignment, len(comps))
			feas := make([]bool, len(comps))
			err := runComponents(len(comps), cfg.Parallelism, func(i int) (err error) {
				start := time.Now()
				feas[i], fracs[i], states[i].iters, err = states[i].chain.extractAt(comps[i].Inst, b)
				states[i].dur += time.Since(start)
				return err
			})
			if err != nil {
				return nil, err
			}
			for i := range states {
				res.LPIters += states[i].iters
				feasible = feasible && feas[i]
			}
			if feasible {
				frac = mergeAssignments(inst, comps, fracs)
				frac.SetExtendedWindows(retExtendedLast(inst, b))
			}
		} else {
			// Past the chains' column sets (windows beyond BMax): a cold
			// per-b model of the whole instance.
			var iters int
			feasible, frac, iters, err = solveSubRET(inst, b, cfg, true)
			res.LPIters += iters
			if err != nil {
				return nil, err
			}
		}
		if feasible {
			lpd := frac.Truncate()
			lpdar := AdjustRates(lpd, RETAdjust)
			if lpdar.AllDemandsMet() {
				res.B, res.Rounds = b, round
				res.LP, res.LPD, res.LPDAR = frac, lpd, lpdar
				res.SolveTime = time.Since(solveStart)
				var serial time.Duration
				for i := range states {
					serial += states[i].dur // search + every δ-round solve
				}
				telParallelWallSeconds.Observe(time.Since(searchStart).Seconds())
				telSerialSolveSeconds.Observe(serial.Seconds())
				telRETDeltaRounds.Add(int64(round))
				telRETFinalB.Set(b)
				return res, nil
			}
			if tracer != nil {
				tracer.Event("ret.delta_round",
					telemetry.KV("round", round),
					telemetry.KV("b", b),
					telemetry.KV("next_b", b+retDelta))
			}
		}
		// Infeasible can happen just above b̂ due to the ε-precision search;
		// either way, δ-extend.
		b += retDelta
	}
}

// retComponent is one component's state through a RET solve.
type retComponent struct {
	chain  *retChain  // extraction chain; survives from the search into the δ-rounds
	prober *retProber // probe chain, stored plan and bound; nil when the chain build failed
	bhat   float64
	iters  int // of the search, then of the latest δ-round solve
	dur    time.Duration
	probes []ProbeStep
}

// release returns the solver memory of the component's extraction and probe
// chains.
func (st *retComponent) release() {
	if st.chain != nil {
		st.chain.inc.Release()
	}
	if st.prober != nil && st.prober.chain != nil {
		st.prober.chain.inc.Release()
	}
}

// retSearch runs the feasibility binary search for b̂ on one component's
// instance, through its prober P (whose extraction chain's seed solve
// answers the ceiling probe). comp labels the probe trajectory with the
// component fingerprint. The returned steps are valid even when the search
// errors out, so post-mortems see the probe that failed.
func retSearch(inst *Instance, cfg RETConfig, P *retProber, comp string) (bhat float64, itersTotal int, steps []ProbeStep, err error) {
	tracer := cfg.Solver.Tracer

	// probe answers one feasibility question of the binary search, through
	// the cheapest sound mechanism available:
	//
	//  1. the b = BMax probe IS the extraction chain's seed solve, so probing
	//     cannot perturb the chain. Its optimum is the first stored plan:
	//     the quick-finish objective concentrates flow early, so the ceiling
	//     optimum typically fits every narrower window down to b̂ and
	//     prunes the feasible half of the bisection outright;
	//  2. the window memo, the stored plan's window fit and the interval
	//     bound (stage "pruned");
	//  3. the incremental probe chain, falling back to a fresh per-b solve
	//     when the chain cannot give an authoritative verdict. The b = 0
	//     probe skips the chain — re-entering the ceiling basis with every
	//     extension column pinned is slower than a fresh solve.
	probe := func(b float64, stage ProbeStage) (bool, int, error) {
		start := time.Now()
		var (
			feasible bool
			iters    int
			warm     bool
			cert     string
			err      error
		)
		if stage == StageBMax {
			feasible, iters, err = P.ceiling(inst, b)
		} else if f, via, ok := P.check(inst, b); ok {
			feasible, cert, stage = f, via, StagePruned
		} else {
			if stage != StageB0 {
				var ok bool
				feasible, iters, ok, err = P.solve(inst, b)
				warm = ok && err == nil
			}
			if !warm && err == nil {
				feasible, _, iters, err = solveSubRET(inst, b, cfg, false)
				if err == nil {
					P.note(inst, b, feasible)
				}
			}
		}
		telRETSearchSteps.Inc()
		step := ProbeStep{
			Component: comp,
			B:         b,
			Stage:     stage,
			Feasible:  feasible,
			Warm:      warm,
			Cert:      cert,
			Iters:     iters,
			DurUS:     float64(time.Since(start)) / float64(time.Microsecond),
		}
		if err != nil {
			step.Err = err.Error()
		}
		steps = append(steps, step)
		if cfg.OnProbe != nil {
			cfg.OnProbe(step)
		}
		if err != nil {
			return false, iters, err
		}
		if tracer != nil {
			tracer.Event("ret.search_step",
				telemetry.KV("b", b),
				telemetry.KV("stage", string(stage)),
				telemetry.KV("component", comp),
				telemetry.KV("feasible", feasible),
				telemetry.KV("warm", warm),
				telemetry.KV("cert", cert),
				telemetry.KV("iters", iters))
		}
		return feasible, iters, err
	}

	// Feasibility of SUB-RET is monotone in b: larger b only widens
	// windows. The ceiling probe runs first — it is the extraction
	// chain's seed solve and the first stored plan — then b = 0, then
	// bisection.
	feasMax, iters, err := probe(cfg.BMax, StageBMax)
	itersTotal += iters
	if err != nil {
		return 0, itersTotal, steps, err
	}
	if !feasMax {
		return 0, itersTotal, steps, fmt.Errorf("schedule: RET infeasible even at b=%g — raise BMax or the grid horizon", cfg.BMax)
	}
	feas0, iters, err := probe(0, StageB0)
	itersTotal += iters
	if err != nil {
		return 0, itersTotal, steps, err
	}
	if feas0 {
		return 0, itersTotal, steps, nil
	}
	lo, hi := 0.0, cfg.BMax
	for hi-lo > retEps {
		mid := (lo + hi) / 2
		feasible, iters, err := probe(mid, StageBisect)
		itersTotal += iters
		if err != nil {
			return 0, itersTotal, steps, err
		}
		if feasible {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, itersTotal, steps, nil
}

// tallyProbes splits a search trajectory into solved vs pruned counts.
func tallyProbes(res *RETResult, steps []ProbeStep) {
	for _, st := range steps {
		if st.Err != "" {
			continue
		}
		if st.Stage == StagePruned {
			res.ProbesPruned++
		} else {
			res.ProbesSolved++
		}
	}
}

// buildSubRETModel assembles the fractional SUB-RET program (eqs. 14–16
// with (5) in place of (10)) at the given per-job windows. The demand
// rows are the first rows of the model (row k is job k's), and the
// returned layout gives the capacity row of each loaded (edge, slice) —
// what the column-generation pricer relies on.
func buildSubRETModel(name string, inst *Instance, extLast []int) (*lp.Model, flowVars, *capCells, error) {
	m := lp.NewModel(name, lp.Minimize)
	xvars, err := addFlowVars(m, inst, extLast, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	// Quick-Finish objective (14): Σ_j γ(j)·Σ x.
	for k := range inst.Jobs {
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			m.SetObj(v, retGamma(j))
		})
	}
	// Demand satisfaction (15): Σ x·LEN ≥ D_i.
	for k, jb := range inst.Jobs {
		r := m.AddRow("", lp.GE, jb.Size)
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			m.AddTerm(r, v, inst.Grid.Len(j))
		})
	}
	// Every capacity row, whether or not the model will grow: a dropped row
	// changes the pivot path, and SUB-RET's vertex follows it (DESIGN §10).
	return m, xvars, addCapacityRows(m, inst, xvars, nil), nil
}

// solveSubRET builds and solves the fractional SUB-RET LP under extension
// factor b as a standalone per-b model. It reports feasibility; the
// assignment is extracted only when extract is true.
func solveSubRET(inst *Instance, b float64, cfg RETConfig, extract bool) (bool, *Assignment, int, error) {
	extLast := retExtendedLast(inst, b)
	m, xvars, _, err := buildSubRETModel("sub-ret", inst, extLast)
	if err != nil {
		return false, nil, 0, err
	}
	sol, err := m.SolveWith(cfg.Solver)
	if err != nil {
		return false, nil, 0, fmt.Errorf("schedule: SUB-RET(b=%g): %w", b, err)
	}
	switch sol.Status {
	case lp.Optimal:
		if !extract {
			return true, nil, sol.Iters, nil
		}
		a := extractAssignment(inst, xvars, sol)
		a.SetExtendedWindows(extLast)
		return true, a, sol.Iters, nil
	case lp.Infeasible:
		return false, nil, sol.Iters, nil
	default:
		return false, nil, sol.Iters, fmt.Errorf("schedule: SUB-RET(b=%g): solver returned %v", b, sol.Status)
	}
}

// retExtendedLast computes each job's last usable slice under extension
// factor b — the (1+b)-scaled deadline mapped onto the grid with the same
// rounding convention as the original windows, clamped to the grid and
// never shrinking the original window.
func retExtendedLast(inst *Instance, b float64) []int {
	ns := inst.Grid.Num()
	extLast := make([]int, inst.NumJobs())
	for k, jb := range inst.Jobs {
		// The last usable slice must end at or before the (extended) end time.
		_, last, ok := inst.Grid.Window(jb.Start, inst.Grid.ExtendFactor(jb.End, b))
		if !ok {
			last = -1
		}
		if last >= ns {
			last = ns - 1
		}
		// The extended end must not shrink the original window.
		if _, origLast := inst.Window(k); last < origLast {
			last = origLast
		}
		extLast[k] = last
	}
	return extLast
}

// retChain is a persistent SUB-RET model over BMax-extended windows,
// re-solved incrementally as b moves. A candidate b only flips variable
// bounds — out-of-window flow pinned to [0,0], re-opened flow to [0,∞) —
// which is feasibility-equivalent to the per-b model solveSubRET would
// build (a variable fixed at zero contributes nothing to any row). The
// lp.Incremental underneath chains the basis across solves, including
// after infeasible verdicts.
type retChain struct {
	cfg     RETConfig
	m       *lp.Model
	xv      flowVars
	maxLast []int // extended windows at BMax (the model's variable set)
	curLast []int // windows currently applied via bounds
	inc     *lp.Incremental
}

// newRETChain builds the chain model at BMax windows.
func newRETChain(inst *Instance, name string, cfg RETConfig) (*retChain, error) {
	maxLast := retExtendedLast(inst, cfg.BMax)
	m, xv, _, err := buildSubRETModel(name, inst, maxLast)
	if err != nil {
		return nil, err
	}
	cur := make([]int, len(maxLast))
	copy(cur, maxLast)
	return &retChain{
		cfg:     cfg,
		m:       m,
		xv:      xv,
		maxLast: maxLast,
		curLast: cur,
		inc:     lp.NewIncremental(m, cfg.Solver),
	}, nil
}

// fork returns a chain of its own — bounds, applied windows, basis — over
// the receiver's constraint matrix (lp.Model.Fork), as of the windows the
// receiver has applied now.
func (ch *retChain) fork(name string, cfg RETConfig) *retChain {
	m := ch.m.Fork(name)
	return &retChain{
		cfg:     cfg,
		m:       m,
		xv:      ch.xv,
		maxLast: ch.maxLast,
		curLast: append([]int(nil), ch.curLast...),
		inc:     lp.NewIncremental(m, cfg.Solver),
	}
}

// applyLast flips variable bounds to realize the given per-job windows.
func (ch *retChain) applyLast(last []int) {
	for k := range last {
		if last[k] == ch.curLast[k] {
			continue
		}
		for p := range ch.xv[k] {
			for j, v := range ch.xv[k][p] {
				if v < 0 {
					continue
				}
				switch {
				case j > last[k]:
					ch.m.SetBounds(v, 0, 0) // outside the b-window: pinned
				case j > ch.curLast[k]:
					ch.m.SetBounds(v, 0, lp.Inf) // re-opened by a larger b
				}
			}
		}
		ch.curLast[k] = last[k]
	}
}

// solveAt re-solves the chain at extension factor b. ok is false when the
// solver returned a status the chain cannot interpret (iteration/time
// limit, numerical) — the caller then needs an authoritative cold solve.
func (ch *retChain) solveAt(inst *Instance, b float64) (feasible bool, sol *lp.Solution, iters int, ok bool, err error) {
	ch.applyLast(retExtendedLast(inst, b))
	before := ch.inc.Iters()
	sol, err = ch.inc.Solve()
	iters = ch.inc.Iters() - before
	if err != nil {
		return false, nil, iters, false, fmt.Errorf("schedule: SUB-RET(b=%g): %w", b, err)
	}
	switch sol.Status {
	case lp.Optimal:
		return true, sol, iters, true, nil
	case lp.Infeasible:
		return false, sol, iters, true, nil
	default:
		return false, nil, iters, false, nil
	}
}

// extractAt solves at b and extracts the fractional assignment. Residual
// values on pinned (out-of-window) columns are zeroed, so the assignment
// matches what a per-b model would structurally enforce.
func (ch *retChain) extractAt(inst *Instance, b float64) (bool, *Assignment, int, error) {
	feasible, sol, iters, ok, err := ch.solveAt(inst, b)
	if err != nil {
		return false, nil, iters, err
	}
	if !ok {
		// Authoritative fallback, mirroring the probe path.
		f, a, it2, err := solveSubRET(inst, b, ch.cfg, true)
		return f, a, iters + it2, err
	}
	if !feasible {
		return false, nil, iters, nil
	}
	a := extractAssignment(inst, ch.xv, sol)
	for k, last := range ch.curLast {
		for p := range a.X[k] {
			row := a.X[k][p]
			for j := last + 1; j < len(row); j++ {
				row[j] = 0
			}
		}
	}
	a.SetExtendedWindows(retExtendedLast(inst, b))
	return true, a, iters, nil
}

// lastKey fingerprints a per-job window vector for the probe memo: two b
// values quantizing to the same windows pose the exact same LP.
func lastKey(last []int) string {
	var sb strings.Builder
	sb.Grow(4 * len(last))
	for _, v := range last {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	return sb.String()
}

// retFitTol is the slack a stored plan may have and still answer a probe:
// the solver's primal tolerance, on the plan's rows and on the columns the
// probe's windows pin to zero.
const retFitTol = 1e-7

// retProber answers feasibility probes for one component: first from the
// window memo, then by fitting the last feasible plan inside the probe's
// windows, then by the interval bound, and only then by an incremental
// solve on its own probe chain. The chain is separate from the extraction
// chain — a fork of it: the same rows, read-only, under bounds, a basis and
// solver buffers of its own — so probe traffic cannot perturb the
// extraction solve sequence (which is what keeps the schedule a function of
// b̂ alone).
type retProber struct {
	ext *retChain // the extraction chain the probe chain is forked from
	cfg RETConfig

	seed  *lp.Basis // first-solve warm start: the extraction chain's ceiling basis
	chain *retChain // lazily forked: a fully pruned search never pays for it

	memo  map[string]bool // window fingerprint → feasibility verdict
	plan  []float64       // Solution.X of the last feasible solve (smallest b proven), or nil
	bound *retBound       // built by the first probe that reaches it
}

// newRETProber wires the prober to its component's extraction chain.
func newRETProber(ext *retChain, cfg RETConfig) *retProber {
	return &retProber{ext: ext, cfg: cfg, memo: make(map[string]bool)}
}

// ceiling answers the b = BMax probe by the extraction chain's seed solve (a
// fresh per-b solve when the chain gives no authoritative verdict) and keeps
// what it leaves: the basis seeds the probe chain, the verdict goes in the
// window memo, the plan answers later probes it fits.
func (p *retProber) ceiling(inst *Instance, b float64) (feasible bool, iters int, err error) {
	feasible, sol, iters, ok, err := p.ext.solveAt(inst, b)
	if err == nil && !ok {
		var it2 int
		feasible, _, it2, err = solveSubRET(inst, b, p.cfg, false)
		iters += it2
	}
	if err != nil {
		return false, iters, err
	}
	p.seed = p.ext.inc.Basis()
	p.note(inst, b, feasible)
	if ok {
		p.keep(feasible, sol)
	}
	return feasible, iters, nil
}

// keep stores the plan of a feasible chain solve, replacing the stored one:
// the newest is for the smallest b proven so far. A plan that breaks a row
// by more than retFitTol is no witness, and none is kept in its place.
func (p *retProber) keep(feasible bool, sol *lp.Solution) {
	if !feasible {
		return
	}
	p.plan = nil
	if sol.PrimalInfeas <= retFitTol {
		p.plan = sol.X
	}
}

// note records a solved verdict in the window memo.
func (p *retProber) note(inst *Instance, b float64, feasible bool) {
	p.memo[lastKey(retExtendedLast(inst, b))] = feasible
}

// ensureChain returns the probe chain, forking it on first use.
func (p *retProber) ensureChain() *retChain {
	if p.chain == nil {
		p.chain = p.ext.fork("sub-ret-probe", p.cfg)
		if p.seed != nil {
			p.chain.inc.SeedBasis(p.seed)
		}
	}
	return p.chain
}

// check tries to answer the probe at b without a solve: window memo, then
// the stored plan's window fit, then the interval bound. ok is false when
// nothing applies. Every answer is a fact about the probe's LP: a plan that
// fits is a feasible point of it, and the bound a combination of its rows.
func (p *retProber) check(inst *Instance, b float64) (feasible bool, via string, ok bool) {
	last := retExtendedLast(inst, b)
	key := lastKey(last)
	if v, hit := p.memo[key]; hit {
		return v, CertWindow, true
	}
	switch {
	case p.plan != nil && p.fits(last):
		feasible, via = true, CertPoint
	case p.refutes(inst, last):
		feasible, via = false, CertBound
	default:
		return false, "", false
	}
	telProbePruned.Inc()
	p.memo[key] = feasible
	return feasible, via, true
}

// fits reports whether the stored plan lies inside the windows last: the
// plan already meets every row, so it is feasible at last when no column
// past a job's last slice — pinned to [0, 0] there, where every other
// column is [0, ∞) — carries more than retFitTol.
func (p *retProber) fits(last []int) bool {
	for k, vars := range p.ext.xv {
		for _, row := range vars {
			for j := last[k] + 1; j < len(row); j++ {
				if v := row[j]; v >= 0 && p.plan[v] > retFitTol {
					return false
				}
			}
		}
	}
	return true
}

// refutes runs the interval bound, building it on first use.
func (p *retProber) refutes(inst *Instance, last []int) bool {
	if p.bound == nil {
		p.bound = newRETBound(inst)
	}
	return p.bound.refutes(last)
}

// solve answers the probe at b on the incremental probe chain. ok is
// false when the chain could not give an authoritative verdict — the
// caller then falls back to a fresh per-b solve.
func (p *retProber) solve(inst *Instance, b float64) (feasible bool, iters int, ok bool, err error) {
	ch := p.ensureChain()
	feasible, sol, iters, ok, err := ch.solveAt(inst, b)
	if err != nil {
		return false, iters, false, fmt.Errorf("schedule: SUB-RET probe(b=%g): %w", b, err)
	}
	if ok {
		p.memo[lastKey(ch.curLast)] = feasible
		p.keep(feasible, sol)
	}
	return feasible, iters, ok, nil
}

// BuildRETInstance constructs an instance whose uniform grid (slices of
// length sliceLen starting at origin 0) covers every job's
// (1+bMax)-extended end time, as SolveRET requires. k is the number of
// allowed paths per job.
func BuildRETInstance(g *netgraph.Graph, jobs []job.Job, sliceLen float64, k int, bMax float64) (*Instance, error) {
	return BuildRETInstanceOpts(g, jobs, sliceLen, k, bMax, InstanceOptions{})
}

// BuildRETInstanceOpts is BuildRETInstance with full path-construction
// control; opts.K defaults to k when unset.
func BuildRETInstanceOpts(g *netgraph.Graph, jobs []job.Job, sliceLen float64, k int, bMax float64, opts InstanceOptions) (*Instance, error) {
	if sliceLen <= 0 {
		return nil, fmt.Errorf("schedule: slice length must be positive, got %g", sliceLen)
	}
	horizon := (1 + bMax) * job.MaxEnd(jobs)
	n := timeslice.CoverUntil(0, sliceLen, horizon)
	if n == 0 {
		n = 1
	}
	grid, err := timeslice.Uniform(0, sliceLen, n)
	if err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		opts.K = k
	}
	return NewInstanceOpts(g, grid, jobs, opts)
}
