package lp

import (
	"errors"
	"math"
)

// Basis is an opaque snapshot of a simplex basis, captured on
// Solution.Basis when Options.CaptureBasis (or a warm start) was requested.
// It pins the full column status — which columns are basic, which nonbasic
// ones sit at their lower vs upper bound — plus the artificial-column
// signs, which together determine the basis matrix exactly.
//
// A Basis is only meaningful for the model shape it was captured from:
// same variable count, same row count, same per-row inequality mix (slack
// columns). Options.WarmStart verifies all of that and silently falls back
// to a cold solve on any mismatch, so callers may hand a stale basis to a
// structurally different model without risking a wrong answer.
type Basis struct {
	nVars int // structural columns
	nRows int
	nCols int // structural + slack columns

	basis []int     // slot -> column
	state []int8    // column -> stAtLower/stAtUpper/stBasic, length nCols+nRows
	art   []float64 // artificial signs, length nRows
}

// Extend remaps a captured basis onto the shape the model takes after
// appending addedVars structural columns and addedLERows trailing LE
// constraint rows (the column-generation growth pattern: new path columns
// plus any capacity rows they are the first to load). The returned snapshot
// keeps the original basis matrix unchanged — appended columns enter
// nonbasic at their lower bound, each appended row's slack enters basic —
// so a warm solve from it refactorizes the same basis and prices the new
// columns in from the old optimum instead of solving cold.
//
// Only LE rows may be appended this way (their +1 slack provides the basic
// column for the new slot). The receiver is not modified; a nil receiver or
// negative counts return nil, and Extend(0, 0) returns a plain copy.
func (ws *Basis) Extend(addedVars, addedLERows int) *Basis {
	if ws == nil || addedVars < 0 || addedLERows < 0 {
		return nil
	}
	nVars := ws.nVars + addedVars
	nRows := ws.nRows + addedLERows
	nCols := ws.nCols + addedVars + addedLERows
	out := &Basis{
		nVars: nVars,
		nRows: nRows,
		nCols: nCols,
		basis: make([]int, nRows),
		state: make([]int8, nCols+nRows),
		art:   make([]float64, nRows),
	}
	// Old column index j maps to: itself (structural), j+addedVars (slack:
	// the slack block starts after the enlarged structural block), or
	// nCols+i (artificial i: the artificial block starts after the enlarged
	// structural+slack block).
	remap := func(j int) int {
		switch {
		case j < ws.nVars:
			return j
		case j < ws.nCols:
			return j + addedVars
		default:
			return nCols + (j - ws.nCols)
		}
	}
	for slot, j := range ws.basis {
		out.basis[slot] = remap(j)
	}
	for j, st := range ws.state {
		out.state[remap(j)] = st
	}
	copy(out.art, ws.art)
	// Appended structural columns rest at their lower bound; appended rows
	// get their own slack basic (slot value = rhs − activity, which the dual
	// simplex repairs if negative) and a positive-signed artificial.
	for t := 0; t < addedLERows; t++ {
		slackCol := ws.nCols + addedVars + t
		out.basis[ws.nRows+t] = slackCol
		out.state[slackCol] = stBasic
		out.art[ws.nRows+t] = 1
	}
	return out
}

// snapshotBasis copies the live basis out of the solver state.
func (s *simplex) snapshotBasis() *Basis {
	ws := &Basis{
		nVars: s.nStruct,
		nRows: s.m,
		nCols: s.n,
		basis: make([]int, s.m),
		state: make([]int8, s.nTotal()),
		art:   make([]float64, s.m),
	}
	copy(ws.basis, s.basis)
	copy(ws.state, s.state)
	copy(ws.art, s.art)
	return ws
}

// compatible reports whether the snapshot matches the assembled solver's
// shape and is internally consistent (no duplicate or out-of-range basic
// columns).
func (ws *Basis) compatible(s *simplex) bool {
	if ws == nil || ws.nVars != s.nStruct || ws.nRows != s.m || ws.nCols != s.n {
		return false
	}
	if len(ws.basis) != ws.nRows || len(ws.state) != ws.nCols+ws.nRows || len(ws.art) != ws.nRows {
		return false
	}
	seen := make(map[int]bool, len(ws.basis))
	for _, j := range ws.basis {
		if j < 0 || j >= s.nTotal() || seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

// installBasis makes a compatible snapshot the current basis, under the
// phase-2 costs.
func (s *simplex) installBasis(ws *Basis) {
	copy(s.basis, ws.basis)
	copy(s.state, ws.state)
	copy(s.art, ws.art)
	for j := range s.pos {
		s.pos[j] = -1
	}
	for slot, j := range s.basis {
		s.pos[j] = slot
		s.state[j] = stBasic
	}
	s.luCurrent = false
	s.enterPhase2() // drops the pricing summaries with the reduced costs
	// Repair stale nonbasic states: a column recorded basic in the snapshot
	// but displaced above, or recorded at an upper bound that is now
	// infinite, rests at its lower bound.
	for j := 0; j < s.nTotal(); j++ {
		if s.pos[j] >= 0 {
			continue
		}
		if s.state[j] == stBasic || (s.state[j] == stAtUpper && math.IsInf(s.u[j], 1)) {
			s.state[j] = stAtLower
		}
	}
}

// warmSolve attempts to solve from the basis in opt.WarmStart instead of
// the two-phase cold start: install the snapshot, re-factorize the LU, run
// the dual simplex to restore primal feasibility under the (possibly
// changed) RHS and bounds, then a primal clean-up pass for the (possibly
// changed) objective. The third return is false when the warm attempt must
// be abandoned — structural mismatch, singular basis, numerical stall —
// in which case the caller rebuilds clean state and solves cold; the other
// returns are then meaningless.
//
// Correctness does not depend on the snapshot being dual feasible for the
// current costs: a dualInfeasible verdict rests on a sign argument over
// the pivot row alone, and a dualOptimal exit is always re-certified by
// primal pricing before extraction.
func (s *simplex) warmSolve(m *Model, opt Options) (*Solution, error, bool) {
	ws := opt.WarmStart
	if !ws.compatible(s) {
		return nil, nil, false
	}
	s.installBasis(ws)

	if err := s.refactorize(); err != nil {
		return nil, nil, false // singular basis under the current data
	}

	st, err := s.dualSimplex()
	if errors.Is(err, ErrTimeLimit) {
		// Falling back would double the wall-clock budget; surface the
		// timeout like the cold path does.
		return &Solution{Status: TimeLimit, Iters: s.iters}, err, true
	}
	if err != nil || st == dualStall {
		return nil, nil, false
	}
	switch st {
	case dualInfeasible:
		sol := &Solution{Status: Infeasible, Iters: s.iters}
		sol.Basis = s.snapshotBasis()
		return sol, nil, true
	case dualIterLimit:
		return &Solution{Status: IterLimit, Iters: s.iters}, nil, true
	}

	// Primal clean-up: certify optimality for the current costs (the dual
	// pass only restored primal feasibility) and absorb objective changes.
	s.blandMode = false
	s.degenRun = 0
	if q := s.price(); q >= 0 {
		stp, err := s.runPhase()
		telPhase2Pivots.Add(int64(s.iters))
		if errors.Is(err, ErrTimeLimit) {
			return &Solution{Status: TimeLimit, Iters: s.iters}, err, true
		}
		if err != nil {
			return nil, nil, false
		}
		if stp != Optimal {
			return &Solution{Status: stp, Iters: s.iters}, nil, true
		}
	}

	sol, err := s.optimum(m)
	if errors.Is(err, ErrTimeLimit) {
		return sol, err, true
	}
	if err != nil {
		return nil, nil, false
	}
	if sol.Status == Optimal {
		sol.Basis = s.snapshotBasis()
	}
	return sol, nil, true
}
