package schedule

import (
	"fmt"

	"wavesched/internal/lp"
	"wavesched/internal/mip"
)

// ExactOptions tunes the exact stage-2 solve.
type ExactOptions struct {
	Alpha  float64     // fairness slack, as in Config
	Weight WeightFunc  // objective weights; nil selects WeightBySize
	MIP    mip.Options // branch-and-bound limits
}

// ExactResult is the outcome of the exact stage-2 integer program.
type ExactResult struct {
	Assignment *Assignment
	Objective  float64 // weighted throughput of the exact optimum
	Nodes      int     // branch-and-bound nodes
	Proven     bool    // true when the solution is proven optimal
}

// ExactStage2 solves the stage-2 problem (eqs. 7–10) to integer optimality
// by branch and bound. Only practical for very small instances — exactly
// the regime the paper describes as accessible to standard MIP solvers —
// but it turns the LP upper bound into a true optimum, letting LPDAR's
// optimality gap be measured directly.
func ExactStage2(inst *Instance, s1 *Stage1Result, opts ExactOptions) (*ExactResult, error) {
	if opts.Alpha == 0 {
		opts.Alpha = defaultAlpha
	}
	m, _, xvars, _, err := buildStage2Model(inst, s1.ZStar, opts.Alpha, opts.Weight, nil)
	if err != nil {
		return nil, err
	}
	// Integrality applies to the wavelength counts x, not to the derived
	// throughputs Z.
	var intVars []lp.VarID
	for k := range xvars {
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			intVars = append(intVars, v)
		})
	}
	res, err := mip.Solve(m, intVars, opts.MIP)
	if err != nil {
		return nil, err
	}
	switch res.Status {
	case mip.Optimal, mip.NodeLimit:
		if !res.HasBest {
			return nil, fmt.Errorf("schedule: exact stage 2: no incumbent within %d nodes", res.Nodes)
		}
	case mip.Infeasible:
		return nil, fmt.Errorf("schedule: exact stage 2: integer infeasible at alpha=%g (Remark 1: increase alpha)", opts.Alpha)
	default:
		return nil, fmt.Errorf("schedule: exact stage 2: %v", res.Status)
	}

	a := NewAssignment(inst)
	for k := range xvars {
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			a.X[k][p][j] = res.X[v]
		})
	}
	return &ExactResult{
		Assignment: a,
		Objective:  res.Objective,
		Nodes:      res.Nodes,
		Proven:     res.Status == mip.Optimal,
	}, nil
}
