package lp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
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

	// BoundFlips counts the pivots that resolved as bound flips (the
	// entering variable jumped to its opposite bound without a basis
	// change) — the cheap pivots the RET probe bound-toggling produces.
	BoundFlips int

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

// SolveWith optimizes the model with the given options.
func (m *Model) SolveWith(opt Options) (*Solution, error) {
	bf := borrowBufs(m.shape())
	defer releaseBufs(bf)
	_, sol, _, err := m.solve(opt, bf, nil)
	return sol, err
}

// chain is an Incremental's part in a solve: the live state to re-enter (nil
// to start over), and the chain's reference work — the budget of a
// re-entry, which a full solve resets (see Incremental) — going in and
// coming out; how the re-entry ended (warmNone when none ran), coming out.
type chain struct {
	live *simplex
	ref  int
	exit warmExit
}

// solve is one solve of m on the working memory bf, counted in the solve
// counters and traced as one lp.solve span. An Incremental's solve passes
// ch, and re-enters its live state when it has one. Otherwise, or when the
// re-entry gives up, the solve warm-starts from opt.WarmStart when that is
// set, and solves cold from the crash basis when it is not, does not fit, or
// the warm start gives up too. It returns the final solver state, on bf —
// nil on the paths that build none — for a chain to re-enter, and the pivots
// it counted: the solution's and those of a re-entry or warm start given up.
func (m *Model) solve(opt Options, bf *solverBufs, ch *chain) (*simplex, *Solution, int, error) {
	start, sp := time.Now(), opt.Tracer.Start("lp.solve")
	s, sol, abandoned, err := m.solveFrom(opt, bf, ch)
	pivots := abandoned
	if sol != nil {
		pivots += sol.Iters
	}
	countSolve(start, sol, pivots)
	if opt.Tracer != nil {
		reentered := ch != nil && ch.exit == warmSolved
		var extra []telemetry.Attr
		if ch != nil {
			how := "full"
			if reentered {
				how = "reentry"
			}
			extra = append(extra, telemetry.KV("incremental", how))
			if ch.exit != warmNone {
				extra = append(extra, telemetry.KV("reentry", ch.exit.String()))
			}
			if !reentered && abandoned > 0 {
				extra = append(extra, telemetry.KV("reentry_iters", abandoned))
			}
		}
		endSolveSpan(sp, m, opt, sol, err, !reentered && (sol == nil || sol.Warm != "hit"), extra...)
	}
	return s, sol, pivots, err
}

// solveFrom runs solve's sequence and returns, besides the final state and
// the outcome, the pivots of a re-entry or warm start it gave up.
func (m *Model) solveFrom(opt Options, bf *solverBufs, ch *chain) (*simplex, *Solution, int, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if err := m.checkSecondary(opt.Secondary); err != nil {
		return nil, nil, 0, err
	}
	if len(m.rows) == 0 {
		return nil, m.solveUnconstrained(opt.Secondary), 0, nil
	}

	abandoned := 0
	if ch != nil && ch.live != nil {
		s := ch.live
		sol, err, exit := s.reenter(m, opt, ch.ref)
		if ch.exit = exit; exit == warmSolved {
			return s, sol, 0, err
		}
		abandoned = s.iters
	}
	if ws := opt.WarmStart; ws != nil {
		s := m.assemble(opt, bf)
		var sol *Solution
		var err error
		exit := warmStall
		if ws.compatible(s) && s.startFrom(ws) == nil {
			sol, err, exit = s.warm(m, 0)
		}
		if exit == warmSolved {
			telWarmHits.Inc()
			sol.Warm = "hit"
			if sol.Status == Optimal || sol.Status == Infeasible {
				sol.Basis = s.snapshotBasis()
			}
			if ch != nil { // a CaptureBasis seed carries no reference: this solve's work stands in
				ch.ref = cmp.Or(ws.work, s.spent())
			}
			return s, sol, abandoned, err
		}
		abandoned += s.iters
		telWarmFallbacks.Inc()
		// The warm attempt mutated the solver state; rebuild clean below.
	}

	s := m.assemble(opt, bf)
	st, sol, err := m.coldSolve(s, opt)
	sol.BoundFlips = s.boundFlips
	if opt.WarmStart != nil {
		sol.Warm = "fallback"
	}
	if ch != nil && (ch.ref == 0 || sol.Status == Optimal) {
		ch.ref = s.spent()
	}
	return st, sol, abandoned, err
}

// endSolveSpan closes the lp.solve span of one solve with its model, its
// outcome, how it started — cold says the crash basis started it, which the
// crash attribute then names — and the caller's extra attributes.
func endSolveSpan(sp telemetry.Span, m *Model, opt Options, sol *Solution, err error, cold bool, extra ...telemetry.Attr) {
	if opt.Tracer == nil {
		return
	}
	attrs := append([]telemetry.Attr{
		telemetry.KV("model", m.name),
		telemetry.KV("vars", len(m.vars)),
		telemetry.KV("rows", len(m.rows)),
	}, extra...)
	if err != nil {
		attrs = append(attrs, telemetry.KV("error", err.Error()))
	}
	if sol != nil {
		attrs = append(attrs,
			telemetry.KV("status", sol.Status.String()),
			telemetry.KV("iters", sol.Iters),
			telemetry.KV("pricing", opt.Pricing.String()))
		if sol.Phase1Iters > 0 {
			attrs = append(attrs, telemetry.KV("phase1_iters", sol.Phase1Iters))
		}
		if sol.LexIters > 0 {
			attrs = append(attrs, telemetry.KV("lex_iters", sol.LexIters))
		}
		if sol.BoundFlips > 0 {
			attrs = append(attrs, telemetry.KV("bound_flips", sol.BoundFlips))
		}
		if sol.Warm != "" {
			attrs = append(attrs, telemetry.KV("warm", sol.Warm))
		}
		if cold {
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

// solverBufs is one set of simplex working memory: the arrays a solve works
// in, the assembled matrix, its row index and the builder they come out of,
// and the LU and eta arenas. A solve borrows a set from the free list
// (borrowBufs) and gives it back when it returns (releaseBufs); an
// Incremental holds one until Release. Every array is either fully
// overwritten by assemble/coldSolve/warmSolve or zeroed by reshape (the
// phase-cost vectors, whose structural entries the cold phase-1 start relies
// on being zero, the reduced-cost stamps and summaries, the duals, and the
// dual loop's pivot row, which it keeps zero between iterations), and
// borrowBufs clears the factor scratch that is kept zero between calls, so a
// solve reads nothing its set's last user left behind.
type solverBufs struct {
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
	yPos     []float64
	yDual    []float64
	rho      []float64
	rhoPos   []float64
	dj       []float64
	djGen    []uint32
	colMark  []bool
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

	// sim is the solver state assemble sets up over the arrays above.
	sim simplex
}

// The free list of solver working memory. The models of one epoch are built,
// solved and dropped, so memory kept on a model would die with it; kept here,
// a set serves the next model's solve. The list is a plain slice, not a
// sync.Pool, because a garbage collection empties a pool, and at the live
// heap a scheduler runs with one comes every few megabytes of allocation. It
// holds at most maxFreeBufs sets; what it retains is that many of the
// largest sets released since the process started.
var freeBufs struct {
	sync.Mutex
	sets []*solverBufs
}

// maxFreeBufs bounds the free list at two sets per processor: by default a
// component worker pool runs one solve per processor at once, and a RET
// component holds two chains.
func maxFreeBufs() int { return 2 * runtime.GOMAXPROCS(0) }

// size orders sets for the free list: the column count its arrays hold.
func (bf *solverBufs) size() int { return cap(bf.l) }

// fits reports whether the set holds an n-column, nRows-row solve without
// growing its per-column and per-row arrays.
func (bf *solverBufs) fits(n, nRows int) bool {
	return n+nRows <= cap(bf.l) && nRows <= cap(bf.b)
}

// borrowBufs hands out the smallest free set that fits an n-column,
// nRows-row solve, or a new empty one when none does.
func borrowBufs(n, nRows int) *solverBufs {
	freeBufs.Lock()
	sets, pick := freeBufs.sets, -1
	for i, bf := range sets {
		if bf.fits(n, nRows) && (pick < 0 || bf.size() < sets[pick].size()) {
			pick = i
		}
	}
	if pick < 0 {
		freeBufs.Unlock()
		return new(solverBufs)
	}
	bf := sets[pick]
	last := len(sets) - 1
	sets[pick], sets[last] = sets[last], nil
	freeBufs.sets = sets[:last]
	freeBufs.Unlock()
	bf.factor.clearScratch()
	return bf
}

// releaseBufs returns a set to the free list. A full list keeps the largest
// sets: bf replaces the smallest when it is larger, and is dropped
// otherwise. A nil set is ignored.
func releaseBufs(bf *solverBufs) {
	if bf == nil {
		return
	}
	freeBufs.Lock()
	defer freeBufs.Unlock()
	sets := freeBufs.sets
	if len(sets) < maxFreeBufs() {
		freeBufs.sets = append(sets, bf)
		return
	}
	small := 0
	for i := range sets {
		if sets[i].size() < sets[small].size() {
			small = i
		}
	}
	if sets[small].size() < bf.size() {
		sets[small] = bf
	}
}

// shape returns the column count (structural and slack) and the row count of
// the model's assembled form.
func (m *Model) shape() (n, nRows int) {
	n = len(m.vars)
	for _, r := range m.rows {
		if r.op != EQ {
			n++
		}
	}
	return n, len(m.rows)
}

// reshape reslices the set's arrays to an n-column, nRows-row solve,
// reallocating them with an eighth of headroom (a model under column
// generation grows a little every round) when they are too short, and zeroes
// the ones a solve reads before writing (see solverBufs).
func (bf *solverBufs) reshape(n, nRows int) {
	t := n + nRows
	if !bf.fits(n, nRows) {
		capT, capM := t+t/8, nRows+nRows/8
		bf.l, bf.u = make([]float64, capT), make([]float64, capT)
		bf.c, bf.cMin = make([]float64, capT), make([]float64, capT)
		bf.pos, bf.state = make([]int, capT), make([]int8, capT)
		bf.dj, bf.djGen = make([]float64, capT), make([]uint32, capT)
		bf.colMark = make([]bool, capT)
		bf.blocks = make([]priceBlock, numPriceBlocks(capT))
		bf.b, bf.art = make([]float64, capM), make([]float64, capM)
		bf.basis, bf.xB = make([]int, capM), make([]float64, capM)
		bf.scratch, bf.rho, bf.rhoPos = make([]float64, capM), make([]float64, capM), make([]float64, capM)
		bf.yRow, bf.yPos, bf.yDual = make([]float64, capM), make([]float64, capM), make([]float64, capM)
		bf.rowCover, bf.rowDirty = make([]int32, capM), make([]bool, capM)
		bf.dirtied, bf.changed = make([]int32, 0, capM), make([]int, 0, capM)
	}
	bf.l, bf.u = bf.l[:t], bf.u[:t]
	bf.c, bf.cMin = bf.c[:t], bf.cMin[:t]
	bf.pos, bf.state = bf.pos[:t], bf.state[:t]
	bf.dj, bf.djGen = bf.dj[:t], bf.djGen[:t]
	bf.colMark = bf.colMark[:t]
	bf.b, bf.art = bf.b[:nRows], bf.art[:nRows]
	bf.basis, bf.xB = bf.basis[:nRows], bf.xB[:nRows]
	bf.scratch, bf.rho, bf.rhoPos = bf.scratch[:nRows], bf.rho[:nRows], bf.rhoPos[:nRows]
	bf.yRow, bf.yPos, bf.yDual = bf.yRow[:nRows], bf.yPos[:nRows], bf.yDual[:nRows]
	bf.rowCover, bf.rowDirty = bf.rowCover[:nRows], bf.rowDirty[:nRows]
	bf.blocks = bf.blocks[:numPriceBlocks(t)]
	clear(bf.c)
	clear(bf.cMin)
	clear(bf.djGen)
	clear(bf.colMark)
	clear(bf.blocks)
	clear(bf.yRow)
	clear(bf.rho)
	clear(bf.rhoPos)
}

// numPriceBlocks is the number of pricing summaries t columns take.
func numPriceBlocks(t int) int { return (t + priceBlockSize - 1) / priceBlockSize }

// assemble builds the simplex working state on bf — CSC matrix over
// structural and slack columns, bounds, and the minimization-form costs in
// s.cMin — without choosing a starting basis.
func (m *Model) assemble(opt Options, bf *solverBufs) *simplex {
	nVars := len(m.vars)
	n, nRows := m.shape()
	nSlack := n - nVars
	opt = opt.withDefaults(nRows, n)
	bf.reshape(n, nRows)

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

	s := &bf.sim
	*s = simplex{
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
		rhoPos:   bf.rhoPos,
		yRow:     bf.yRow,
		yPos:     bf.yPos,
		yDual:    bf.yDual,
		dj:       bf.dj,
		djGen:    bf.djGen,
		gen:      1,
		byRow:    &bf.byRow,
		colMark:  bf.colMark,
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
	s.startClock()

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
	s.dualsFresh, s.yPosOK = false, false
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
// bound makes the model unbounded. A variable the objective leaves free
// takes the bound the secondary objective prefers.
func (m *Model) solveUnconstrained(secondary []float64) *Solution {
	x := make([]float64, len(m.vars))
	obj := 0.0
	for j, v := range m.vars {
		c := v.obj
		if c == 0 && secondary != nil {
			c = secondary[j]
		}
		if m.sense == Maximize {
			c = -c
		}
		x[j] = v.lb
		if c < 0 {
			if math.IsInf(v.ub, 1) {
				return &Solution{Status: Unbounded}
			}
			x[j] = v.ub
		}
		obj += v.obj * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Duals: []float64{}}
}
