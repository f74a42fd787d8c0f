package lp

import (
	"errors"
	"math"
)

// dualStatus reports the outcome of a dual-simplex run.
type dualStatus int

const (
	dualOptimal    dualStatus = iota // primal feasible reached
	dualInfeasible                   // dual unbounded ⇒ primal infeasible
	dualIterLimit
	dualStall // numerical trouble; caller should fall back to primal
)

// dualSimplex restores primal feasibility of a dual-feasible basis —
// the situation after variable bounds change under an optimal basis
// (reduced costs depend only on the basis and costs, not on bounds).
// It runs the bounded-variable dual simplex until no basic variable
// violates its bounds.
func (s *simplex) dualSimplex() (dualStatus, error) {
	rho, y := s.rho, s.yDual
	s.infeasRow, s.infeasSigma = -1, 0

	for {
		if s.iters >= s.opt.MaxIter {
			return dualIterLimit, nil
		}
		if s.deadlineExceeded() {
			telTimeouts.Inc()
			return dualStall, ErrTimeLimit
		}
		if s.overBudget() {
			return dualIterLimit, errBudget
		}

		r, sigma := s.leavingRow()
		if r < 0 {
			return dualOptimal, nil
		}
		s.pivotRow(r)
		s.work += 2 * s.factor.btranWork() // ρ's BTRAN and the duals'

		leaving := s.basis[r]
		var bound float64
		if sigma > 0 {
			bound = s.u[leaving]
		} else {
			bound = s.l[leaving]
		}
		delta := s.xB[r] - bound // signed infeasibility; sign matches sigma

		// Ratio test: candidates keep dual feasibility after the pivot. Only
		// a column with an entry in a row where ρ is nonzero can have α_j ≠ 0,
		// and pivotRow marked those; the scan, in column order, computes α
		// for them alone. Every other column's α is a sum of zeros, which
		// fails the pivot tolerance, so the choice is that of a scan over
		// every column.
		mark := s.colMark
		q, read := -1, 0
		var alphaQ float64
		best := math.Inf(1)
		for j := 0; j < s.nTotal(); j++ {
			if !mark[j] {
				continue
			}
			mark[j] = false
			read++
			st := s.state[j]
			if st == stBasic || s.l[j] == s.u[j] {
				continue
			}
			alpha := s.colDotY(j, rho)
			ahat := sigma * alpha
			var ok bool
			if st == stAtLower {
				ok = ahat > pivotTol
			} else {
				ok = ahat < -pivotTol
			}
			if !ok {
				continue
			}
			d := s.c[j] - s.colDotY(j, y)
			theta := d / ahat
			if theta < -1e-7 {
				theta = 0 // slight dual infeasibility: take a degenerate step
			}
			if theta < best-1e-12 || (theta < best+1e-12 && (q < 0 || math.Abs(alpha) > math.Abs(alphaQ))) {
				best = theta
				q = j
				alphaQ = alpha
			}
		}
		s.work += read
		s.clearPivotRow()
		if q < 0 {
			// No entering candidate: the primal is infeasible under the
			// new bounds. Record the exit row so a Farkas certificate can
			// be extracted (y = σ·B⁻ᵀe_r).
			s.infeasRow, s.infeasSigma = r, sigma
			return dualInfeasible, nil
		}

		// Primal update: w = B⁻¹ a_q; the entering variable moves by
		// t = delta / α_rq so the leaving variable lands on its bound.
		w, nz := s.factor.ftranCol(s.column(q))
		s.work += len(nz)
		if math.Abs(w[r]) < pivotTol {
			// Pivot row/column mismatch due to round-off: refactorize and
			// retry once; if it persists, stall out to the primal fallback.
			if err := s.refactorize(); err != nil {
				return dualStall, err
			}
			if math.Abs(alphaQ) < pivotTol {
				return dualStall, nil
			}
			continue
		}
		t := delta / w[r]
		for _, i := range nz {
			s.xB[i] -= t * w[i]
		}
		// Leaving variable settles on the violated bound.
		if sigma > 0 {
			s.state[leaving] = stAtUpper
		} else {
			s.state[leaving] = stAtLower
		}
		s.pos[leaving] = -1
		s.basis[r] = q
		s.pos[q] = r
		enterVal := s.nonbasicValue(q) + t
		s.state[q] = stBasic
		s.xB[r] = enterVal
		s.factor.push(r, w, nz)
		s.swapCover(leaving, q)
		s.dualsFresh, s.luCurrent, s.onlySwaps = false, false, false
		s.iters++

		if len(s.factor.etas) >= s.opt.RefactorEvery {
			if err := s.refactorize(); err != nil {
				return dualStall, err
			}
		}
	}
}

// leavingRow returns the slot of the basic variable with the largest bound
// violation, −1 when none exceeds optTol, and the direction it must move:
// +1 down to its upper bound, −1 up to its lower one.
func (s *simplex) leavingRow() (r int, sigma float64) {
	r, sigma = -1, 1
	worst := optTol
	for i := 0; i < s.m; i++ {
		bj := s.basis[i]
		if v := s.l[bj] - s.xB[i]; v > worst {
			worst = v
			r = i
			sigma = -1
		}
		if !math.IsInf(s.u[bj], 1) {
			if v := s.xB[i] - s.u[bj]; v > worst {
				worst = v
				r = i
				sigma = 1
			}
		}
	}
	return r, sigma
}

// pivotRow sets up the dual ratio test on leaving slot r: the duals
// (solveDuals) into yDual, which leaves yRow what the primal pricing cache
// was computed from, and ρ = B⁻ᵀe_r into rho, whose entries give the pivot
// row α_j = ρ·a_j; it marks in colMark every column with an entry on a row
// where ρ is nonzero. Rows outside act keep the duals yDual was last written
// with in full, and with r put on act (r becomes an eta pivot anyway) ρ is
// zero outside act: its positions are all ρ scatters to rows, and all
// clearPivotRow has to clear again.
func (s *simplex) pivotRow(r int) {
	s.solveDuals()
	s.forRows(&s.yDualAt, func(k, i int) { s.yDual[i] = s.yPos[k] })

	f := s.factor
	f.addAct(r)
	s.rhoPos[r] = 1
	f.btranPos(s.rhoPos)
	for _, k := range f.act {
		i, v := f.lu.perm[k], s.rhoPos[k]
		s.rho[i] = v
		if v != 0 {
			for _, j := range s.byRow.row(i) {
				s.colMark[j] = true
			}
			s.colMark[s.n+i] = true
		}
	}
}

// clearPivotRow zeroes what pivotRow wrote of ρ, by position and by row.
func (s *simplex) clearPivotRow() {
	f := s.factor
	for _, k := range f.act {
		s.rhoPos[k], s.rho[f.lu.perm[k]] = 0, 0
	}
}

// warmExit says how a warm path ended.
type warmExit int

const (
	warmNone    warmExit = iota // no warm path ran
	warmSolved                  // the solve's outcome is in hand, whatever its status
	warmBudget                  // the work budget ran out
	warmStall                   // the basis did not factor, or the dual simplex stalled
	warmCleanup                 // the primal clean-up failed or ended Unbounded, or the optimum failed
)

func (e warmExit) String() string {
	return [...]string{"", "solved", "budget", "stall", "cleanup"}[e]
}

// warm is the warm path, from the basis installed in s under the phase-2
// costs — a carried one (startFrom) or a chain's live one (reenter) — with
// the solve's pivots and work counted from zero: the dual simplex restores
// primal feasibility under the current bounds and right-hand sides, a
// primal clean-up certifies optimality under the current costs, and optimum
// builds the Solution. A positive budget is the work it may spend before it
// gives up (warmBudget). Unless it returns warmSolved, the state is
// abandoned and the caller solves cold; the other returns are then
// meaningless. Its dual and clean-up pivots are phase-2 pivots, kept or
// given up.
//
// Correctness does not depend on the basis being dual feasible for the
// current costs: a dualInfeasible verdict rests on a sign argument over the
// pivot row alone, and a dualOptimal exit is always re-certified by primal
// pricing before extraction. A timeout ends the solve rather than the warm
// path: retrying cold would double the wall-clock budget.
func (s *simplex) warm(m *Model, budget int) (sol *Solution, err error, exit warmExit) {
	s.workCap = budget
	defer func() {
		lex := 0 // optimum counted the lexicographic pivots
		if sol != nil {
			lex = sol.LexIters
			sol.BoundFlips = s.boundFlips
		}
		telPhase2Pivots.Add(int64(s.iters - lex))
		s.workCap = 0
	}()
	st, err := s.dualSimplex()
	switch {
	case errors.Is(err, ErrTimeLimit):
		return &Solution{Status: TimeLimit, Iters: s.iters}, err, warmSolved
	case errors.Is(err, errBudget):
		return nil, nil, warmBudget
	case err != nil || st == dualStall:
		return nil, nil, warmStall
	case st != dualOptimal: // infeasible, or the caller's pivot limit
		status := Infeasible
		if st == dualIterLimit {
			status = IterLimit
		}
		return &Solution{Status: status, Iters: s.iters}, nil, warmSolved
	}
	if q := s.price(); q >= 0 {
		stp, err := s.runPhase()
		switch {
		case errors.Is(err, ErrTimeLimit):
			return &Solution{Status: TimeLimit, Iters: s.iters}, err, warmSolved
		case errors.Is(err, errBudget):
			return nil, nil, warmBudget
		case err != nil, stp == Unbounded: // a cold solve confirms Unbounded, or settles round-off
			return nil, nil, warmCleanup
		case stp != Optimal:
			return &Solution{Status: stp, Iters: s.iters}, nil, warmSolved
		}
	}
	sol, err = s.optimum(m)
	if err != nil && !errors.Is(err, ErrTimeLimit) {
		return sol, nil, warmCleanup
	}
	return sol, err, warmSolved
}

// reenter re-solves m from the live state s an earlier solve of it left, as
// a warm start from that basis under opt: it takes up what changed in the
// model since — bounds, costs, right-hand sides; not coefficients, which it
// cannot see — and runs the warm path under the work budget.
func (s *simplex) reenter(m *Model, opt Options, budget int) (*Solution, error, warmExit) {
	s.opt = opt.withDefaults(s.m, s.n)
	s.iters, s.boundFlips, s.work = 0, 0, 0
	s.startClock()
	moved := s.sync(m)
	if s.phase1 {
		// Chained from a cold infeasible exit: the state still carries
		// phase-1 costs and loose artificials. Install the real costs and
		// pin the artificials, as startFrom does; a basic artificial stuck
		// at a positive value becomes a bound violation for the dual simplex.
		s.enterPhase2()
	}
	if moved && s.refactorize() != nil {
		return nil, nil, warmStall
	}
	return s.warm(m, budget)
}

// sync takes up the model's bounds, costs and right-hand sides, and reports
// whether xB no longer solves the right-hand side: a nonbasic variable's
// resting value or a right-hand side moved. The RET probes only toggle
// columns between [0,0] and [0,∞) — the nonbasic value stays 0 either way —
// so on that path both the basic values and the factorization stay exact.
func (s *simplex) sync(m *Model) (moved bool) {
	costs := false
	for j := range m.vars {
		v := &m.vars[j]
		c := v.obj
		if s.negate {
			c = -c
		}
		if c != s.cMin[j] {
			s.cMin[j], costs = c, true
		}
		if v.lb == s.l[j] && v.ub == s.u[j] {
			continue
		}
		st := s.state[j]
		var oldV float64
		if st != stBasic {
			oldV = s.nonbasicValue(j)
		}
		s.l[j], s.u[j] = v.lb, v.ub
		if st == stAtUpper && math.IsInf(v.ub, 1) {
			s.state[j] = stAtLower
		}
		s.dirtyBlock(j)
		if st != stBasic && s.nonbasicValue(j) != oldV {
			moved = true
		}
	}
	for i := range m.rows {
		if rhs := m.rows[i].rhs; rhs != s.b[i] {
			s.b[i], moved = rhs, true
		}
	}
	if costs && !s.phase1 {
		s.enterPhase2()
	}
	if moved {
		s.onlySwaps = false // xB no longer solves the right-hand side
	}
	return moved
}

// Incremental re-solves a model cheaply after changes to its bounds, costs
// or right-hand sides: each Solve after the first is a warm start from the
// basis the last one left (its live state, re-entered in place), and starts
// over with a full solve when the structure changed, the last solve left no
// basis to re-enter, or the re-entry gives up. That is the classic pattern
// of branch and bound and of the RET search's probe chains.
//
// Usage:
//
//	inc := lp.NewIncremental(model, opts)
//	sol, err := inc.Solve()          // full solve
//	model.SetBounds(v, 1, 4)         // tighten a bound
//	sol, err = inc.Solve()           // dual re-entry from the old basis
//
// A row or variable added between solves makes the next one full; a
// coefficient changed in place is NOT detected and yields wrong results.
//
// A re-entry gives up once its work (see simplex.work) reaches the chain's
// reference: the work of its last full solve that reached an optimum (of its
// last full solve, before one has), or the reference its seed carries (a
// seed from CaptureBasis carries none: its warm solve's work stands in). That
// estimates what starting over costs, so a re-entry that gives up has spent
// about what the solve it falls back to then spends again — the ski-rental
// rule. A full solve that proves infeasibility is no reference: phase 1
// ends it early, and a cold solve of the next probe, which may reach an
// optimum, costs several times more. Work is counted, not timed, so the
// verdict is the same on every run and every host.
//
// The chain's solver state lives on one set of working memory, borrowed from
// the package free list at the first solve and held across every solve after
// it. Release gives it back; an Incremental that is dropped without Release
// leaves it to the garbage collector.
type Incremental struct {
	model *Model
	opt   Options
	bufs  *solverBufs // what s lives on, held until Release

	s     *simplex  // the live state, nil when there is no basis to re-enter
	sol   *Solution // the last solve's outcome, for Certificate
	full  bool      // the last solve started over instead of re-entering
	iters int       // pivots of every solve since the first, given-up ones included
	ref   int       // the work a re-entry may spend; 0 for no cap
}

// NewIncremental wraps a model for repeated solves. A secondary objective
// is disabled (the dual re-entries end where the primary pivots end).
func NewIncremental(m *Model, opt Options) *Incremental {
	opt.Secondary = nil
	return &Incremental{model: m, opt: opt}
}

// SeedBasis supplies a warm-start basis for the next full solve — typically
// another chain's (Basis), over a structurally identical model. Ignored
// while the chain has a live basis, and used by one solve at most; a
// mismatched basis is harmless (the solve falls back to a cold start). The
// chain's re-entries inherit the budget the seed carries.
func (inc *Incremental) SeedBasis(b *Basis) {
	if inc.s == nil {
		inc.opt.WarmStart = b
	}
}

// Basis snapshots the live basis, with the chain's re-entry budget, for a
// chain SeedBasis starts; nil when there is none.
func (inc *Incremental) Basis() *Basis {
	if inc.s == nil {
		return nil
	}
	b := inc.s.snapshotBasis()
	b.work = inc.ref
	return b
}

// Certificate exports a feasibility or infeasibility certificate from the
// last solve (nil when the last outcome supports none). See
// Model.CheckFeasibleWithCertificate.
func (inc *Incremental) Certificate() *Certificate {
	if inc.s == nil {
		return nil
	}
	if inc.sol.Status == Optimal {
		return feasCertificate(inc.model, inc.sol)
	}
	return inc.s.infeasCertificate(inc.model)
}

// Solve optimizes the wrapped model, re-entering the live basis when there
// is one. Its pivots, given-up ones included, final status and wall time
// count in the solve counters as a SolveWith's do, and it is traced as an
// lp.solve span like one, which says whether it re-entered the chain or
// started over and, when it tried to re-enter, how that ended.
func (inc *Incremental) Solve() (*Solution, error) {
	if inc.bufs == nil {
		inc.bufs = borrowBufs(inc.model.shape())
	}
	ch := chain{live: inc.s, ref: inc.ref}
	if s := inc.s; s != nil && (s.nStruct != len(inc.model.vars) || s.m != len(inc.model.rows)) {
		ch.live = nil // the structure changed
	}
	s, sol, pivots, err := inc.model.solve(inc.opt, inc.bufs, &ch)
	inc.opt.WarmStart = nil // a seed applies to one solve
	inc.iters += pivots
	inc.full, inc.ref = ch.exit != warmSolved, ch.ref
	inc.s, inc.sol = nil, sol
	if sol != nil && (sol.Status == Optimal || sol.Status == Infeasible) {
		inc.s = s // an infeasible exit chains too: relaxing bounds re-enters it
	}
	return sol, err
}

// Iters returns the pivots of every solve since the first (0 before it):
// full solves that replaced the state and re-entries given up included.
func (inc *Incremental) Iters() int { return inc.iters }

// Release returns the chain's working memory to the free list for other
// solves. The chain's basis goes with it: Basis, Certificate and Iters read
// as before the first solve, and a later Solve starts over with a full
// solve on memory borrowed anew. Export what the chain should hand on
// before calling it.
func (inc *Incremental) Release() {
	releaseBufs(inc.bufs)
	inc.bufs, inc.s, inc.iters = nil, nil, 0
}
