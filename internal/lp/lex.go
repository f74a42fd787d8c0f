package lp

import "math"

// optimum builds the Solution for the optimum the simplex stands on — the
// last price found no eligible column under the phase-2 costs. With
// Options.Secondary it first continues over the optimal face (lexPhase): the
// duals are the ones the primary pivots ended on, X and Objective those of
// the point the second phase ends on. A second phase that does not end
// Optimal is the solve's outcome, with ErrTimeLimit when the clock ended it.
func (s *simplex) optimum(m *Model) (*Solution, error) {
	sol, err := s.extract(m, s.negate)
	if err != nil || s.opt.Secondary == nil {
		return sol, err
	}
	before := s.iters
	st, err := s.lexPhase(s.opt.Secondary)
	lexIters := s.iters - before
	telLexPivots.Add(int64(lexIters))
	if err != nil || st != Optimal {
		return &Solution{Status: st, Iters: s.iters, LexIters: lexIters}, err
	}
	duals := sol.Duals
	sol, err = s.extract(m, s.negate)
	if sol != nil {
		sol.Duals, sol.LexIters = duals, lexIters
	}
	return sol, err
}

// lexPhase is the second phase of a lexicographic solve. It runs at a primary
// optimum and moves, over the optimal face, to the point that optimizes the
// secondary objective (coefficients per model variable, in the model's
// sense).
//
// A feasible point is primary-optimal exactly when it is complementary to
// the optimal duals in hand: every column whose reduced cost is not zero
// stays on the bound it rests at. That is the whole optimal face, whichever
// optimal basis and duals the pivots happened to end on, and it needs no new
// row: each nonbasic column with |d_j| > optTol has its bounds closed onto its
// resting value — no value moves, so the basis stays primal feasible and the
// factors stay current — and primal phase 2 continues under the secondary
// cost. Only columns with zero primary reduced cost can enter, which leaves
// the primary duals and objective where they were. On return the bounds and
// the phase-2 costs are back, so the state (and a basis captured from it)
// serves the primary problem again.
func (s *simplex) lexPhase(secondary []float64) (Status, error) {
	if !s.dualsFresh {
		s.refreshDuals()
	}
	type pin struct {
		j    int
		l, u float64
	}
	var pins []pin
	for j := 0; j < s.n; j++ {
		if s.state[j] == stBasic || s.l[j] == s.u[j] {
			continue
		}
		if d := s.c[j] - s.a.colDot(j, s.yRow); math.Abs(d) > optTol {
			pins = append(pins, pin{j, s.l[j], s.u[j]})
			v := s.nonbasicValue(j)
			s.l[j], s.u[j] = v, v
		}
	}
	for j := range s.c {
		s.c[j] = 0 // slacks and artificials carry no secondary cost
	}
	for j, c := range secondary {
		if s.negate {
			c = -c
		}
		s.c[j] = c
	}
	s.costsChanged()
	s.blandMode = false
	s.degenRun = 0

	st, err := s.runPhase()

	for _, p := range pins {
		s.l[p.j], s.u[p.j] = p.l, p.u
	}
	copy(s.c, s.cMin)
	s.costsChanged()
	return st, err
}
