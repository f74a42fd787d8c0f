// Package mip solves small mixed-integer linear programs exactly by
// LP-based branch and bound, using the simplex solver in internal/lp for
// the relaxations.
//
// The paper reports that obtaining optimal integer solutions "is
// practically impossible ... but for very small setups"; this package
// makes those very small setups available as ground truth, so the LPDAR
// heuristic can be measured against the true integer optimum rather than
// only against the LP upper bound (see the optimality-gap experiment in
// EXPERIMENTS.md).
package mip

import (
	"fmt"
	"math"

	"wavesched/internal/lp"
)

// Status reports the outcome of a branch-and-bound solve.
type Status int

// Solve outcomes.
const (
	// Optimal: the incumbent is proven optimal.
	Optimal Status = iota
	// Infeasible: no integer-feasible point exists.
	Infeasible
	// NodeLimit: search stopped early; Best (if any) is a feasible
	// incumbent without an optimality proof.
	NodeLimit
	// Unbounded: the relaxation is unbounded in the integer directions.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node limit"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Search tolerances.
const (
	intTol = 1e-6 // integrality tolerance
	gap    = 1e-9 // absolute pruning gap
)

// Options tunes the search. The zero value selects sensible defaults.
type Options struct {
	MaxNodes int        // LP relaxations to solve; ≤0 selects 100000
	LP       lp.Options // passed to every relaxation
	// ColdStart disables the dual-simplex warm start between nodes and
	// solves every relaxation from scratch (mainly for benchmarking the
	// warm start's effect).
	ColdStart bool
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 100000
	}
	return o
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective, in the model's sense
	X         []float64 // incumbent point (nil when none found)
	Nodes     int       // LP relaxations solved
	HasBest   bool      // an incumbent exists (always true when Optimal)
}

// node is one open subproblem: bound overrides for the integer variables.
type node struct {
	lb, ub []float64 // parallel to intVars
	depth  int
}

// Solve finds the optimum of model subject to the listed variables being
// integer. The model itself is not modified.
func Solve(model *lp.Model, intVars []lp.VarID, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := model.Validate(); err != nil {
		return nil, err
	}
	work := model.Clone()

	maximize := work.Sense() == lp.Maximize
	better := func(a, b float64) bool { // is a better than b?
		if maximize {
			return a > b
		}
		return a < b
	}
	// canBeat: can a relaxation bound possibly improve on the incumbent?
	canBeat := func(bound, incumbent float64) bool {
		if maximize {
			return bound > incumbent+gap
		}
		return bound < incumbent-gap
	}

	// Root bounds for the integer variables, tightened to integers.
	rootLB := make([]float64, len(intVars))
	rootUB := make([]float64, len(intVars))
	for i, v := range intVars {
		l, u := model.Bounds(v)
		rootLB[i] = math.Ceil(l - intTol)
		rootUB[i] = math.Floor(u + intTol)
		if rootLB[i] > rootUB[i] {
			return &Result{Status: Infeasible}, nil
		}
	}

	res := &Result{Status: Infeasible}
	incumbent := math.Inf(1)
	if maximize {
		incumbent = math.Inf(-1)
	}

	// Warm start: relaxations differ only in integer-variable bounds, the
	// exact situation the dual simplex re-solve handles.
	var inc *lp.Incremental
	if !opt.ColdStart {
		inc = lp.NewIncremental(work, opt.LP)
		defer inc.Release()
	}
	solveNode := func() (*lp.Solution, error) {
		if inc != nil {
			return inc.Solve()
		}
		return work.SolveWith(opt.LP)
	}

	stack := []node{{lb: rootLB, ub: rootUB}}
	for len(stack) > 0 {
		if res.Nodes >= opt.MaxNodes {
			res.Status = NodeLimit
			return res, nil
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		for i, v := range intVars {
			work.SetBounds(v, nd.lb[i], nd.ub[i])
		}
		sol, err := solveNode()
		if err != nil {
			return nil, fmt.Errorf("mip: node %d: %w", res.Nodes, err)
		}
		res.Nodes++
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// Unbounded relaxation at the root means the MIP is unbounded
			// or infeasible; report unbounded (standard convention).
			return &Result{Status: Unbounded, Nodes: res.Nodes}, nil
		case lp.Optimal:
			// fall through
		default:
			return nil, fmt.Errorf("mip: node %d: relaxation returned %v", res.Nodes, sol.Status)
		}
		if res.HasBest && !canBeat(sol.Objective, incumbent) {
			continue // bound cannot improve the incumbent
		}

		// Find the most fractional integer variable.
		branch := -1
		worst := intTol
		for i, v := range intVars {
			x := sol.Value(v)
			frac := math.Abs(x - math.Round(x))
			if frac > worst {
				worst = frac
				branch = i
			}
		}
		if branch < 0 {
			// Integer feasible: new incumbent (round off tolerance drift).
			if !res.HasBest || better(sol.Objective, incumbent) {
				incumbent = sol.Objective
				res.Objective = sol.Objective
				res.X = append(res.X[:0], sol.X...)
				for _, v := range intVars {
					res.X[v] = math.Round(res.X[v])
				}
				res.HasBest = true
			}
			continue
		}

		// Branch on x ≤ ⌊v⌋ and x ≥ ⌈v⌉. Push the "down" branch last so
		// DFS explores it first (tends to find incumbents sooner for
		// minimization problems with packing structure).
		x := sol.Value(intVars[branch])
		floorV := math.Floor(x)
		up := node{lb: append([]float64(nil), nd.lb...), ub: append([]float64(nil), nd.ub...), depth: nd.depth + 1}
		up.lb[branch] = floorV + 1
		down := node{lb: append([]float64(nil), nd.lb...), ub: append([]float64(nil), nd.ub...), depth: nd.depth + 1}
		down.ub[branch] = floorV
		if up.lb[branch] <= up.ub[branch] {
			stack = append(stack, up)
		}
		if down.lb[branch] <= down.ub[branch] {
			stack = append(stack, down)
		}
	}

	if res.HasBest {
		res.Status = Optimal
	}
	return res, nil
}
