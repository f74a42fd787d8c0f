package lp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wavesched/internal/telemetry"
)

// Solution is the result of solving a Model.
type Solution struct {
	Status    Status
	Objective float64   // in the model's own sense (valid when Optimal)
	X         []float64 // one value per model variable (valid when Optimal)
	Duals     []float64 // one dual per row, for the minimization form
	Iters     int       // total simplex pivots across both phases

	// Phase1Iters is the number of pivots spent in phase 1 on the cold
	// path (0 on warm solves, which skip phase 1 entirely).
	Phase1Iters int

	// LexIters is the number of pivots (counted in Iters) the second phase
	// of a lexicographic solve took; 0 without Options.Secondary.
	LexIters int

	// Warm reports the warm-start outcome: "hit" when the supplied basis
	// was reused, "fallback" when it was rejected and the cold path ran,
	// "" when no warm start was attempted.
	Warm string

	// Pricing is the entering-variable rule actually used (Auto resolved
	// against the model size).
	Pricing Pricing

	// BoundFlips counts the pivots that resolved as bound flips (the
	// entering variable jumped to its opposite bound without a basis
	// change) — the cheap pivots the RET probe bound-toggling produces.
	BoundFlips int

	// DevexResets counts devex reference-framework restarts during the
	// solve (0 under other pricing rules).
	DevexResets int

	// PrimalInfeas is the largest constraint violation of the returned
	// point, a numerical diagnostic (0 is exact).
	PrimalInfeas float64

	// Basis is the final simplex basis, captured when Options.CaptureBasis
	// (or a warm start) was requested and the solve ended Optimal or
	// Infeasible. Feed it to Options.WarmStart on a later solve of the same
	// (or a structurally identical) model after RHS, bound, or objective
	// changes. Nil when not captured.
	Basis *Basis
}

// Value returns the primal value of v.
func (s *Solution) Value(v VarID) float64 { return s.X[v] }

// Solve optimizes the model with default options.
func (m *Model) Solve() (*Solution, error) { return m.SolveWith(Options{}) }

// SolveWith optimizes the model with the given options.
func (m *Model) SolveWith(opt Options) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	sp := opt.Tracer.Start("lp.solve")
	_, sol, err := m.solveCore(opt)
	telSolveSeconds.ObserveSince(start)
	if sol != nil {
		telPivots.Add(int64(sol.Iters))
		if c, ok := telSolvesByStatus[sol.Status]; ok {
			c.Inc()
		}
		if sol.Status == Infeasible {
			telInfeasible.Inc()
		}
	}
	if opt.Tracer != nil {
		attrs := []telemetry.Attr{
			telemetry.KV("model", m.name),
			telemetry.KV("vars", len(m.vars)),
			telemetry.KV("rows", len(m.rows)),
		}
		if err != nil {
			attrs = append(attrs, telemetry.KV("error", err.Error()))
		}
		if sol != nil {
			attrs = append(attrs,
				telemetry.KV("status", sol.Status.String()),
				telemetry.KV("iters", sol.Iters),
				telemetry.KV("pricing", sol.Pricing.String()))
			if sol.Phase1Iters > 0 {
				attrs = append(attrs, telemetry.KV("phase1_iters", sol.Phase1Iters))
			}
			if sol.LexIters > 0 {
				attrs = append(attrs, telemetry.KV("lex_iters", sol.LexIters))
			}
			if sol.BoundFlips > 0 {
				attrs = append(attrs, telemetry.KV("bound_flips", sol.BoundFlips))
			}
			if sol.DevexResets > 0 {
				attrs = append(attrs, telemetry.KV("devex_resets", sol.DevexResets))
			}
			if sol.Warm != "" {
				attrs = append(attrs, telemetry.KV("warm", sol.Warm))
			}
			if sol.Warm != "hit" { // the cold path ran
				crash := telemetry.KV("crash", "slack")
				if opt.ArtificialCrash {
					crash = telemetry.KV("crash", "artificial")
				}
				attrs = append(attrs, crash)
			}
			if sol.Status == Optimal {
				attrs = append(attrs, telemetry.KV("objective", sol.Objective))
			}
		}
		sp.End(attrs...)
	}
	return sol, err
}

// solveCore runs the simplex and returns the final solver state alongside
// the solution, so incremental re-solves can keep the basis. The state is
// nil on paths that never build a simplex. When Options.WarmStart holds a
// structurally compatible basis, the warm path (dual simplex from the
// supplied basis, then a primal clean-up) replaces the two-phase cold
// start; any mismatch or numerical trouble falls back to the cold path.
func (m *Model) solveCore(opt Options) (*simplex, *Solution, error) {
	if err := m.checkSecondary(opt.Secondary); err != nil {
		return nil, nil, err
	}
	if len(m.rows) == 0 {
		cMin := make([]float64, len(m.vars))
		negate := m.sense == Maximize
		for j, v := range m.vars {
			c := v.obj
			if c == 0 && opt.Secondary != nil {
				c = opt.Secondary[j] // only the secondary objective tells its bounds apart
			}
			if negate {
				c = -c
			}
			cMin[j] = c
		}
		sol, err := m.solveUnconstrained(cMin, negate)
		return nil, sol, err
	}

	if opt.WarmStart != nil {
		s := m.assemble(opt)
		if sol, err, ok := s.warmSolve(m, opt); ok {
			telWarmHits.Inc()
			if sol != nil {
				sol.Warm = "hit"
				sol.Pricing = s.opt.Pricing
				sol.BoundFlips = s.boundFlips
				sol.DevexResets = s.devexResets
			}
			return s, sol, err
		}
		telWarmFallbacks.Inc()
		// The warm attempt mutated the solver state; rebuild clean below.
	}

	s := m.assemble(opt)
	st, sol, err := m.coldSolve(s, opt)
	if sol != nil {
		sol.Pricing = s.opt.Pricing
		sol.BoundFlips = s.boundFlips
		sol.DevexResets = s.devexResets
		if opt.WarmStart != nil {
			sol.Warm = "fallback"
		}
	}
	return st, sol, err
}

// solverBufs is the set of simplex working arrays cached on a Model
// between solves, so the warm-probe hot path (hundreds of re-solves of
// one model) stops allocating them per solve. Every array is either fully
// overwritten by assemble/coldSolve/warmSolve or explicitly zeroed on
// reuse (the phase-cost vectors, whose structural entries the cold phase-1
// start relies on being zero).
type solverBufs struct {
	n, nRows int
	l, u     []float64
	c, cMin  []float64
	b        []float64
	art      []float64
	basis    []int
	pos      []int
	state    []int8
	xB       []float64
	scratch  []float64
	yRow     []float64
	yNext    []float64
	rho      []float64
	dj       []float64
	djGen    []uint32
	blocks   []priceBlock
	rowCover []int32
	rowDirty []bool
	dirtied  []int32
	changed  []int
	factor   basisFactor // LU arenas and eta file, refilled by refactorize

	// The assembled matrix, its row-wise pattern and the builder they come
	// out of: refilled in place by every assemble.
	a     cscMatrix
	byRow rowIndex
	tb    tripletBuilder
}

// grab returns the model's cached buffers resliced to the assembled shape
// when their capacity suffices, or a freshly allocated set (cached for the
// next solve) otherwise. Capacity-based reuse (rather than an exact shape
// match) keeps the cache useful under column generation, where AddColumn/
// AddRow grow the model a little every pricing round.
func (m *Model) grabBufs(n, nRows int) *solverBufs {
	t := n + nRows
	if bf := m.bufs; bf != nil && t <= cap(bf.l) && nRows <= cap(bf.b) {
		bf.n, bf.nRows = n, nRows
		bf.l, bf.u = bf.l[:t], bf.u[:t]
		bf.c, bf.cMin = bf.c[:t], bf.cMin[:t]
		bf.pos, bf.state = bf.pos[:t], bf.state[:t]
		bf.dj, bf.djGen = bf.dj[:t], bf.djGen[:t]
		bf.b, bf.art = bf.b[:nRows], bf.art[:nRows]
		bf.basis, bf.xB = bf.basis[:nRows], bf.xB[:nRows]
		bf.scratch, bf.rho = bf.scratch[:nRows], bf.rho[:nRows]
		bf.yRow, bf.yNext = bf.yRow[:nRows], bf.yNext[:nRows]
		bf.rowCover, bf.rowDirty = bf.rowCover[:nRows], bf.rowDirty[:nRows]
		bf.blocks = bf.blocks[:numPriceBlocks(t)]
		// Zero the two cost vectors: phase 1 needs zero structural costs,
		// and the minimization-form costs are only written for structural
		// columns; and the reduced-cost stamps and pricing summaries, so
		// nothing cached by the last solve is served to this one. All other
		// arrays are fully overwritten before use.
		for i := range bf.c {
			bf.c[i] = 0
			bf.cMin[i] = 0
			bf.djGen[i] = 0
		}
		clear(bf.blocks)
		return bf
	}
	// When an undersized cache is being replaced the model is growing
	// (column generation); allocate headroom so the next few appends
	// reslice instead of reallocating.
	capT, capM := t, nRows
	if m.bufs != nil {
		capT += capT / 8
		capM += capM / 8
	}
	bf := &solverBufs{
		n: n, nRows: nRows,
		l:       make([]float64, t, capT),
		u:       make([]float64, t, capT),
		c:       make([]float64, t, capT),
		cMin:    make([]float64, t, capT),
		b:       make([]float64, nRows, capM),
		art:     make([]float64, nRows, capM),
		basis:   make([]int, nRows, capM),
		pos:     make([]int, t, capT),
		state:   make([]int8, t, capT),
		xB:      make([]float64, nRows, capM),
		scratch: make([]float64, nRows, capM),
		yRow:    make([]float64, nRows, capM),
		yNext:   make([]float64, nRows, capM),
		rho:     make([]float64, nRows, capM),
		dj:      make([]float64, t, capT),
		djGen:   make([]uint32, t, capT),
		blocks:  make([]priceBlock, numPriceBlocks(t), numPriceBlocks(capT)),

		rowCover: make([]int32, nRows, capM),
		rowDirty: make([]bool, nRows, capM),
		dirtied:  make([]int32, 0, capM),
		changed:  make([]int, 0, capM),
	}
	m.bufs = bf
	return bf
}

// numPriceBlocks is the number of pricing summaries t columns take.
func numPriceBlocks(t int) int { return (t + priceBlockSize - 1) / priceBlockSize }

// assemble builds the simplex working state — CSC matrix over structural
// and slack columns, bounds, and the minimization-form costs in s.cMin —
// without choosing a starting basis.
func (m *Model) assemble(opt Options) *simplex {
	nVars := len(m.vars)
	nRows := len(m.rows)

	// Count slacks: one per inequality row.
	nSlack := 0
	for _, r := range m.rows {
		if r.op != EQ {
			nSlack++
		}
	}
	n := nVars + nSlack
	opt = opt.withDefaults(nRows, n)
	bf := m.grabBufs(n, nRows)

	// Assemble the CSC matrix over structural + slack columns.
	nnz := nSlack
	for _, r := range m.rows {
		nnz += len(r.terms)
	}
	tb := &bf.tb
	tb.reset(nRows, n, nnz)
	for k, r := range m.rows {
		for _, t := range r.terms {
			tb.add(k, int(t.col), t.coef)
		}
	}
	l := bf.l // includes artificial bounds
	u := bf.u
	c := bf.cMin
	negate := m.sense == Maximize
	for j, v := range m.vars {
		l[j], u[j] = v.lb, v.ub
		if negate {
			c[j] = -v.obj
		} else {
			c[j] = v.obj
		}
	}
	b := bf.b
	slack := nVars
	for k, r := range m.rows {
		b[k] = r.rhs
		switch r.op {
		case LE:
			tb.add(k, slack, 1)
			l[slack], u[slack] = 0, Inf
			slack++
		case GE:
			tb.add(k, slack, -1)
			l[slack], u[slack] = 0, Inf
			slack++
		}
	}
	tb.buildInto(&bf.a)
	bf.byRow.build(&bf.a)

	s := &simplex{
		opt:      opt,
		a:        &bf.a,
		b:        b,
		c:        bf.c,
		cMin:     c,
		negate:   negate,
		l:        l,
		u:        u,
		m:        nRows,
		n:        n,
		art:      bf.art,
		basis:    bf.basis,
		pos:      bf.pos,
		state:    bf.state,
		xB:       bf.xB,
		scratch:  bf.scratch,
		rho:      bf.rho,
		yRow:     bf.yRow,
		yNext:    bf.yNext,
		dj:       bf.dj,
		djGen:    bf.djGen,
		gen:      1,
		byRow:    &bf.byRow,
		blocks:   bf.blocks,
		rowCover: bf.rowCover,
		rowDirty: bf.rowDirty,
		dirtied:  bf.dirtied[:0],
		changed:  bf.changed,
		factor:   &bf.factor,
	}
	for j := range s.pos {
		s.pos[j] = -1
	}
	if opt.TimeLimit > 0 {
		s.deadline = time.Now().Add(opt.TimeLimit)
		s.untilTick = 0
	}

	s.nStruct = nVars
	s.infeasRow = -1
	return s
}

// coldSolve runs the classic two-phase primal simplex from the crash basis.
func (m *Model) coldSolve(s *simplex, opt Options) (*simplex, *Solution, error) {
	opt = s.opt // assemble already applied the defaults
	capture := opt.CaptureBasis || opt.WarmStart != nil

	s.crashBasis()
	if err := s.refactorize(); err != nil {
		return nil, &Solution{Status: Numerical}, fmt.Errorf("lp: initial factorization: %w", err)
	}

	// Phase 1: minimize the sum of artificial values.
	st, err := s.runPhase()
	phase1Iters := s.iters
	telPhase1Pivots.Add(int64(phase1Iters))
	if err != nil {
		if errors.Is(err, ErrTimeLimit) {
			return nil, &Solution{Status: TimeLimit, Iters: s.iters}, err
		}
		return nil, &Solution{Status: Numerical, Iters: s.iters}, err
	}
	if st == IterLimit {
		return nil, &Solution{Status: IterLimit, Iters: s.iters}, nil
	}
	if st == Unbounded {
		return nil, &Solution{Status: Numerical, Iters: s.iters}, fmt.Errorf("lp: phase 1 reported unbounded")
	}
	if obj := s.objective(); obj > 1e-6 {
		if opt.Tracer != nil {
			opt.Tracer.Event("lp.infeasible",
				telemetry.KV("model", m.name),
				telemetry.KV("phase1_residual", obj),
				telemetry.KV("phase1_pivots", phase1Iters))
		}
		sol := &Solution{Status: Infeasible, Iters: s.iters, Phase1Iters: phase1Iters}
		if capture {
			sol.Basis = s.snapshotBasis()
		}
		// Return the state: its phase-1 duals are a Farkas ray, and an
		// incremental caller can chain from the basis.
		return s, sol, nil
	}

	// Phase 2: real costs; artificials pinned to zero and never attractive.
	s.enterPhase2()
	s.blandMode = false
	s.degenRun = 0
	st, err = s.runPhase()
	telPhase2Pivots.Add(int64(s.iters - phase1Iters))
	if err != nil {
		if errors.Is(err, ErrTimeLimit) {
			return nil, &Solution{Status: TimeLimit, Iters: s.iters, Phase1Iters: phase1Iters}, err
		}
		return nil, &Solution{Status: Numerical, Iters: s.iters, Phase1Iters: phase1Iters}, err
	}
	if st != Optimal {
		return nil, &Solution{Status: st, Iters: s.iters, Phase1Iters: phase1Iters}, nil
	}

	sol, err := s.optimum(m)
	if sol != nil {
		sol.Phase1Iters = phase1Iters
	}
	if err == nil && sol.Status == Optimal && capture {
		sol.Basis = s.snapshotBasis()
	}
	return s, sol, err
}

// checkSecondary validates Options.Secondary against the model.
func (m *Model) checkSecondary(secondary []float64) error {
	if secondary == nil {
		return nil
	}
	if len(secondary) != len(m.vars) {
		return fmt.Errorf("lp: Options.Secondary has %d coefficients for %d variables", len(secondary), len(m.vars))
	}
	for j, c := range secondary {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: Options.Secondary: bad coefficient %v for variable %q (%d)", c, m.vars[j].name, j)
		}
	}
	return nil
}

// crashBasis installs the cold start: every structural and slack column
// nonbasic at a bound, one basic column per row, and the phase-1 costs (1 on
// each artificial). A row whose own slack takes up the residual at a
// nonnegative value — LE with residual ≥ 0, GE with residual ≤ 0 — starts on
// that slack, its artificial nonbasic and pinned to [0, 0] as enterPhase2
// would leave it. An EQ row, or a residual of the wrong sign, starts on the
// artificial, signed so that its value is nonnegative; so does every row
// under Options.ArtificialCrash.
func (s *simplex) crashBasis() {
	n, l, u := s.n, s.l, s.u
	// Start all structural and slack columns at their lower bound; pick the
	// bound closer to zero when the lower bound is very large in magnitude
	// to reduce the initial residual. (Lower bound is always finite.)
	for j := 0; j < n; j++ {
		s.state[j] = stAtLower
		if !math.IsInf(u[j], 1) && math.Abs(u[j]) < math.Abs(l[j]) {
			s.state[j] = stAtUpper
		}
	}
	// Residual determines artificial signs so artificial values start ≥ 0.
	res := s.scratch
	copy(res, s.b)
	for j := 0; j < n; j++ {
		if v := s.nonbasicValue(j); v != 0 {
			s.a.addColTimes(j, -v, res)
		}
	}
	for i := 0; i < s.m; i++ {
		sign := 1.0
		if res[i] < 0 {
			sign = -1
		}
		s.art[i] = sign
		col := n + i
		s.basis[i] = col
		s.pos[col] = i
		s.state[col] = stBasic
		s.xB[i] = math.Abs(res[i])
		l[col], u[col] = 0, Inf
		s.c[col] = 1 // phase-1 cost
	}
	if !s.opt.ArtificialCrash {
		// A slack column is ±e_i, so slack·(±1) = res[i] has a nonnegative
		// solution exactly when the two signs agree.
		for sl := s.nStruct; sl < n; sl++ {
			rows, vals := s.a.col(sl)
			i := rows[0]
			if vals[0]*res[i] < 0 {
				continue
			}
			col := n + i
			s.basis[i] = sl
			s.pos[sl] = i
			s.state[sl] = stBasic
			s.pos[col] = -1
			s.state[col] = stAtLower
			l[col], u[col] = 0, 0
		}
	}
	s.phase1 = true
	s.luCurrent = false
	s.dropBlocks()
}

// enterPhase2 installs the real (minimization-form) costs and pins the
// artificials to [0, 0], so they can never re-enter with a nonzero value.
// It serves the cold phase switch, the warm start and an Incremental
// re-entry chained from a cold infeasible exit alike. The costs change, so
// everything pricing derived from them goes.
func (s *simplex) enterPhase2() {
	copy(s.c, s.cMin)
	for i := 0; i < s.m; i++ {
		col := s.n + i
		s.c[col] = 0
		s.l[col], s.u[col] = 0, 0
	}
	s.phase1 = false
	s.costsChanged()
}

// costsChanged drops everything pricing derived from the phase costs.
func (s *simplex) costsChanged() {
	s.dropReducedCosts()
	s.dualsFresh = false
	if s.gamma != nil {
		s.resetDevex() // the reference framework was built under the old costs
	}
}

// extract builds the user-facing Solution from the final simplex state.
func (s *simplex) extract(m *Model, negate bool) (*Solution, error) {
	s.flushKernelCounts() // a certifying price call may have run outside runPhase
	nVars := len(m.vars)
	x := make([]float64, nVars)
	for j := 0; j < nVars; j++ {
		v := s.value(j)
		// Clamp small numerical drift back into the bounds.
		if v < s.l[j] {
			v = s.l[j]
		}
		if v > s.u[j] {
			v = s.u[j]
		}
		x[j] = v
	}
	obj := 0.0
	for j, v := range m.vars {
		obj += v.obj * x[j]
	}
	// Duals from the final basis with the minimization-form costs.
	y := make([]float64, s.m)
	for slot, j := range s.basis {
		y[slot] = s.c[j]
	}
	s.factor.btran(y)

	// Primal infeasibility of the clamped point against the original rows.
	infeas := 0.0
	for _, r := range m.rows {
		act := 0.0
		for _, t := range r.terms {
			act += t.coef * x[t.col]
		}
		var viol float64
		switch r.op {
		case LE:
			viol = act - r.rhs
		case GE:
			viol = r.rhs - act
		case EQ:
			viol = math.Abs(act - r.rhs)
		}
		if viol > infeas {
			infeas = viol
		}
	}

	return &Solution{
		Status:       Optimal,
		Objective:    obj,
		X:            x,
		Duals:        y,
		Iters:        s.iters,
		PrimalInfeas: infeas,
	}, nil
}

// solveUnconstrained handles models with no rows: every variable sits at
// whichever bound optimizes it; an improving direction with an infinite
// bound makes the model unbounded.
func (m *Model) solveUnconstrained(cMin []float64, negate bool) (*Solution, error) {
	x := make([]float64, len(m.vars))
	for j, v := range m.vars {
		switch {
		case cMin[j] > 0:
			x[j] = v.lb
		case cMin[j] < 0:
			if math.IsInf(v.ub, 1) {
				return &Solution{Status: Unbounded}, nil
			}
			x[j] = v.ub
		default:
			x[j] = v.lb
		}
	}
	obj := 0.0
	for j, v := range m.vars {
		obj += v.obj * x[j]
	}
	_ = negate
	return &Solution{Status: Optimal, Objective: obj, X: x, Duals: []float64{}}, nil
}
