package lp

import (
	"errors"
	"math"
	"time"

	"wavesched/internal/telemetry"
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
	m := s.m
	rho := s.rho
	s.infeasRow, s.infeasSigma = -1, 0

	for {
		if s.iters >= s.opt.MaxIter {
			return dualIterLimit, nil
		}
		if s.deadlineExceeded() {
			telTimeouts.Inc()
			return dualStall, ErrTimeLimit
		}

		// Leaving variable: the basic with the largest bound violation.
		r := -1
		worst := optTol
		sigma := 1.0 // +1: must decrease to its upper bound; −1: increase to lower
		for i := 0; i < m; i++ {
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
		if r < 0 {
			return dualOptimal, nil
		}

		// ρ = B⁻ᵀ e_r, then the pivot row α_j = ρ·a_j for nonbasic j.
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		s.factor.btran(rho)

		// Current duals for the ratio test, in the spare buffer: yRow stays
		// what the primal pricing cache was computed from.
		y := s.yNext
		for slot, j := range s.basis {
			y[slot] = s.c[j]
		}
		s.factor.btran(y)

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
		// and ρ is sparse: those columns are marked first, and the scan, in
		// column order, computes α for them alone. Every other column's α is
		// a sum of zeros, which fails the pivot tolerance, so the choice is
		// that of a scan over every column.
		mark := s.colMark
		for i, v := range rho {
			if v != 0 {
				for _, j := range s.byRow.row(i) {
					mark[j] = true
				}
				mark[s.n+i] = true
			}
		}
		q := -1
		var alphaQ float64
		best := math.Inf(1)
		for j := 0; j < s.nTotal(); j++ {
			if !mark[j] {
				continue
			}
			mark[j] = false
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

// Incremental solves a model once with the primal simplex and then
// re-solves cheaply after bound changes using the dual simplex from the
// previous optimal basis — the classic warm-start pattern for branch and
// bound and for the RET δ-extension loop.
//
// Usage:
//
//	inc := lp.NewIncremental(model, opts)
//	sol, err := inc.Solve()          // full primal solve
//	model.SetBounds(v, 1, 4)         // tighten a bound
//	sol, err = inc.Solve()           // dual re-solve from the old basis
//
// Only bound changes are supported between solves; altering costs or rows
// triggers a full re-solve (detected via row/variable counts — changing
// coefficients in place is NOT detected and yields wrong results).
//
// The chain's solver state lives on one set of working memory, borrowed from
// the package free list at the first solve and held across every re-solve
// and full solve after it. Release gives it back; an Incremental that is
// dropped without Release leaves it to the garbage collector.
type Incremental struct {
	model *Model
	opt   Options

	s     *simplex
	bufs  *solverBufs // what s lives on, held until Release
	base  int         // pivots of the states full solves abandoned since the first solve
	nVars int
	nRows int
	valid bool // s holds a chainable basis for the current costs
	full  bool // the running Solve started over (fullSolve)

	lastStatus Status
	lastSol    *Solution
}

// NewIncremental wraps a model for repeated solves. A secondary objective
// is disabled (the dual re-entries end where the primary pivots end).
func NewIncremental(m *Model, opt Options) *Incremental {
	opt.Secondary = nil
	return &Incremental{model: m, opt: opt, lastStatus: Numerical}
}

// SeedBasis supplies a warm-start basis for the first solve — typically
// carried over from a previous Incremental over a structurally identical
// model (the controller's previous epoch). Ignored after the first solve,
// which already chains its own basis; a mismatched basis is harmless (the
// first solve falls back to a cold start).
func (inc *Incremental) SeedBasis(b *Basis) {
	if inc.s == nil {
		inc.opt.WarmStart = b
	}
}

// Basis snapshots the current basis for cross-session carry, or nil
// before the first solve.
func (inc *Incremental) Basis() *Basis {
	if inc.s == nil {
		return nil
	}
	return inc.s.snapshotBasis()
}

// Certificate exports a feasibility or infeasibility certificate from the
// last solve (nil when the last outcome supports none). See
// Model.CheckFeasibleWithCertificate.
func (inc *Incremental) Certificate() *Certificate {
	if inc.s == nil {
		return nil
	}
	switch inc.lastStatus {
	case Optimal:
		return feasCertificate(inc.model, inc.lastSol)
	case Infeasible:
		return inc.s.infeasCertificate(inc.model)
	}
	return nil
}

// Solve optimizes the wrapped model, reusing the previous basis via the
// dual simplex when only bounds changed since the last call. Its pivots,
// final status and wall time count in the solve counters as a SolveWith's
// do, and it is traced as an lp.solve span like one, its incremental
// attribute saying whether it re-entered the chain or started over.
func (inc *Incremental) Solve() (*Solution, error) {
	start, before := time.Now(), inc.Iters()
	sp, opt := inc.opt.Tracer.Start("lp.solve"), inc.opt
	inc.full = false
	sol, err := inc.solve()
	countSolve(start, sol, inc.Iters()-before)
	if opt.Tracer != nil {
		how := "reentry"
		if inc.full {
			how = "full"
		}
		endSolveSpan(sp, inc.model, opt, sol, err, inc.full && (sol == nil || sol.Warm != "hit"),
			telemetry.KV("incremental", how))
	}
	if sol != nil {
		inc.lastStatus = sol.Status
		inc.lastSol = sol
	} else {
		inc.lastStatus = Numerical
		inc.lastSol = nil
	}
	return sol, err
}

func (inc *Incremental) solve() (*Solution, error) {
	if err := inc.model.Validate(); err != nil {
		return nil, err
	}
	structureChanged := inc.model.NumVars() != inc.nVars || inc.model.NumRows() != inc.nRows
	if !inc.valid || inc.s == nil || structureChanged {
		return inc.fullSolve()
	}

	s := inc.s
	before := s.iters
	sol, err, ok := inc.reenter(s)
	// The re-entry's dual and primal pivots, kept or abandoned below; a full
	// solve counts its own phases.
	telPhase2Pivots.Add(int64(s.iters - before))
	if !ok {
		return inc.fullSolve()
	}
	return sol, err
}

// reenter re-solves from the chained state s with the dual simplex. It
// reports false when the state must be abandoned for a full solve (a stall,
// the re-entry budget, a failed clean-up); the other returns are then
// meaningless.
func (inc *Incremental) reenter(s *simplex) (*Solution, error, bool) {
	if inc.opt.TimeLimit > 0 {
		s.deadline = time.Now().Add(inc.opt.TimeLimit)
		s.untilTick = 0
	}
	needRecompute := s.syncBounds(inc.model)
	if s.phase1 {
		// Chained from a cold infeasible exit: the state still carries
		// phase-1 costs and loose artificials. Install the real costs and
		// pin the artificials, exactly as a warm start would; any basic
		// artificial stuck at a positive value becomes a bound violation
		// the dual simplex resolves below.
		s.enterPhase2()
	}
	if needRecompute {
		// A nonbasic resting value moved: rebuild the basic values (and
		// the factorization, conservatively) from scratch.
		if err := s.refactorize(); err != nil {
			return nil, nil, false
		}
	}
	// Budget the re-entry: from an unlucky (degenerate) basis the dual
	// crawl plus cleanup can cost an order of magnitude more pivots than
	// a cold solve. Past about one pivot per model dimension, cut losses
	// and restart from scratch — the budget is deterministic, so chained
	// and cold runs still agree on every verdict.
	budget := inc.nRows + inc.nVars + 1000
	savedMax := s.opt.MaxIter
	budgeted := s.iters+budget < savedMax
	if budgeted {
		s.opt.MaxIter = s.iters + budget
	}
	defer func() { s.opt.MaxIter = savedMax }()

	// Ratio-test-only re-entry: go straight to the dual simplex violation
	// scan on the live basis.
	st, err := s.dualSimplex()
	if errors.Is(err, ErrTimeLimit) {
		// Retrying from scratch would double the wall-clock budget, which
		// defeats the point of a deadline: surface the timeout directly.
		inc.valid = false
		return &Solution{Status: TimeLimit, Iters: s.iters}, err, true
	}
	if err != nil || st == dualStall {
		return nil, nil, false
	}
	switch st {
	case dualInfeasible:
		// The basis keeps its meaning for chaining: a later bound
		// relaxation re-enters the dual scan from right here.
		return &Solution{Status: Infeasible, Iters: s.iters}, nil, true
	case dualIterLimit:
		if budgeted {
			return nil, nil, false // re-entry budget exhausted, not the caller's cap
		}
		inc.valid = false
		return &Solution{Status: IterLimit, Iters: s.iters}, nil, true
	}
	// Safety net: confirm dual feasibility with the primal pricing; clean
	// up any residual attractive columns (tolerance drift).
	if q := s.price(); q >= 0 {
		stp, err := s.runPhase()
		if errors.Is(err, ErrTimeLimit) {
			inc.valid = false
			return &Solution{Status: TimeLimit, Iters: s.iters}, err, true
		}
		if err != nil || stp != Optimal {
			return nil, nil, false
		}
	}
	sol, err := s.extract(inc.model, inc.model.Sense() == Maximize)
	if err != nil {
		return nil, nil, false
	}
	sol.BoundFlips = s.boundFlips
	return sol, nil, true
}

// syncBounds refreshes the structural bounds from the model and reports
// whether any nonbasic variable's resting VALUE moved. The RET probes only
// toggle columns between [0,0] and [0,∞) — the nonbasic value stays 0 either
// way — so on that path both the basic values and the factorization remain
// exact and a refactorize/recompute step would be pure overhead.
func (s *simplex) syncBounds(m *Model) (moved bool) {
	for j := 0; j < s.nStruct; j++ {
		lb, ub := m.Bounds(VarID(j))
		if lb == s.l[j] && ub == s.u[j] {
			continue
		}
		st := s.state[j]
		var oldV float64
		if st != stBasic {
			oldV = s.nonbasicValue(j)
		}
		s.l[j], s.u[j] = lb, ub
		if st == stAtUpper && math.IsInf(ub, 1) {
			s.state[j] = stAtLower
		}
		s.dirtyBlock(j)
		if st != stBasic && s.nonbasicValue(j) != oldV {
			moved = true
		}
	}
	if moved {
		s.onlySwaps = false // xB no longer solves the right-hand side
	}
	return moved
}

// fullSolve runs the two-phase primal simplex from scratch (or from a
// SeedBasis warm start) and caches the final state.
func (inc *Incremental) fullSolve() (*Solution, error) {
	// The state in hand is abandoned whether or not this solve succeeds, and
	// the next one is built on its memory: its pivots go to the base first.
	if inc.bufs == nil {
		inc.bufs = borrowBufs(inc.model.shape())
	}
	if inc.s != nil {
		inc.base += inc.s.iters
	}
	inc.valid, inc.full = false, true
	s, sol, err := inc.model.solveCore(inc.opt, inc.bufs)
	inc.opt.WarmStart = nil // a seed applies to the first solve only
	inc.s = s
	if err != nil {
		return sol, err
	}
	inc.nVars = inc.model.NumVars()
	inc.nRows = inc.model.NumRows()
	// An Infeasible exit still leaves a chainable basis: relaxing bounds
	// later re-enters the dual simplex from it (via the phase-1
	// normalization above when the exit was a cold phase-1 one).
	inc.valid = s != nil && (sol.Status == Optimal || sol.Status == Infeasible)
	return sol, nil
}

// Iters returns the cumulative simplex iterations across all solves
// (0 before the first solve), full solves that replaced the state included.
func (inc *Incremental) Iters() int {
	if inc.s == nil {
		return inc.base
	}
	return inc.base + inc.s.iters
}

// Release returns the chain's working memory to the free list for other
// solves. The chain's basis goes with it: Basis, Certificate and Iters read
// as before the first solve, and a later Solve starts over with a full
// solve on memory borrowed anew. Export what the chain should hand on
// before calling it.
func (inc *Incremental) Release() {
	releaseBufs(inc.bufs)
	inc.bufs, inc.s, inc.base, inc.valid = nil, nil, 0, false
}
