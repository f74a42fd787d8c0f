package lp

import (
	"fmt"
	"math"
)

// presolved is the outcome of the presolve pass: a reduced model plus the
// mappings needed to reconstruct a solution of the original model.
type presolved struct {
	reduced *Model
	status  Status // Optimal to proceed, Infeasible when proven infeasible

	varMap   []int     // original var -> reduced var, or -1 when fixed
	fixedVal []float64 // value of fixed original vars (valid when varMap = -1)
	rowMap   []int     // original row -> reduced row, or -1 when dropped

	nFixed   int // variables eliminated by bound-fixing
	nDropped int // rows eliminated (singleton and empty)
}

const presolveFixTol = 1e-11

// presolve applies safe reductions: merge duplicate terms, substitute
// variables fixed by their bounds, convert singleton rows into bound
// tightenings, and drop rows that became empty — repeating to a fixpoint.
// It never changes the optimal objective value.
func presolve(m *Model) (*presolved, error) {
	n := len(m.vars)
	nr := len(m.rows)
	lb := make([]float64, n)
	ub := make([]float64, n)
	for j, v := range m.vars {
		lb[j], ub[j] = v.lb, v.ub
	}

	// Merged term lists per row.
	type rowState struct {
		terms map[VarID]float64
		rhs   float64
		op    RelOp
		dead  bool
	}
	rows := make([]rowState, nr)
	for k, r := range m.rows {
		terms := make(map[VarID]float64, len(r.terms))
		for _, t := range r.terms {
			terms[t.col] += t.coef
		}
		for c, v := range terms {
			if v == 0 {
				delete(terms, c)
			}
		}
		rows[k] = rowState{terms: terms, rhs: r.rhs, op: r.op}
	}

	fixed := make([]bool, n)
	infeasible := false

	// checkEmpty validates a row with no terms left: 0 op rhs.
	checkEmpty := func(rs *rowState) bool {
		switch rs.op {
		case LE:
			return rs.rhs >= -1e-9
		case GE:
			return rs.rhs <= 1e-9
		default:
			return math.Abs(rs.rhs) <= 1e-9
		}
	}

	changed := true
	for changed && !infeasible {
		changed = false
		// Fix variables whose bounds coincide, substituting into rows.
		for j := 0; j < n; j++ {
			if fixed[j] {
				continue
			}
			if ub[j]-lb[j] < presolveFixTol && !math.IsInf(ub[j], 1) {
				fixed[j] = true
				changed = true
				val := lb[j]
				for k := range rows {
					rs := &rows[k]
					if rs.dead {
						continue
					}
					if a, ok := rs.terms[VarID(j)]; ok {
						rs.rhs -= a * val
						delete(rs.terms, VarID(j))
					}
				}
			}
			if lb[j] > ub[j]+1e-9 {
				infeasible = true
			}
		}
		// Singleton rows become bound tightenings; empty rows are checked
		// and dropped.
		for k := range rows {
			rs := &rows[k]
			if rs.dead {
				continue
			}
			switch len(rs.terms) {
			case 0:
				if !checkEmpty(rs) {
					infeasible = true
				}
				rs.dead = true
				changed = true
			case 1:
				var col VarID
				var a float64
				for c, v := range rs.terms {
					col, a = c, v
				}
				j := int(col)
				bound := rs.rhs / a
				tightenUB := rs.op == LE && a > 0 || rs.op == GE && a < 0
				tightenLB := rs.op == GE && a > 0 || rs.op == LE && a < 0
				if rs.op == EQ {
					tightenUB, tightenLB = true, true
				}
				if tightenUB && bound < ub[j] {
					ub[j] = bound
				}
				if tightenLB && bound > lb[j] {
					lb[j] = bound
				}
				if lb[j] > ub[j]+1e-9 {
					infeasible = true
				}
				rs.dead = true
				changed = true
			}
		}
	}
	nFixed, nDropped := 0, 0
	for j := 0; j < n; j++ {
		if fixed[j] {
			nFixed++
		}
	}
	for k := range rows {
		if rows[k].dead {
			nDropped++
		}
	}
	if infeasible {
		return &presolved{status: Infeasible, nFixed: nFixed, nDropped: nDropped}, nil
	}

	// Build the reduced model.
	ps := &presolved{
		status:   Optimal,
		varMap:   make([]int, n),
		fixedVal: make([]float64, n),
		rowMap:   make([]int, nr),
		nFixed:   nFixed,
		nDropped: nDropped,
	}
	red := NewModel(m.name+"-presolved", m.sense)
	for j := 0; j < n; j++ {
		if fixed[j] {
			ps.varMap[j] = -1
			ps.fixedVal[j] = lb[j]
			continue
		}
		if lb[j] > ub[j] {
			// within tolerance; clamp
			ub[j] = lb[j]
		}
		ps.varMap[j] = red.NumVars()
		red.AddVar(m.vars[j].name, lb[j], ub[j], m.vars[j].obj)
	}
	for k := range rows {
		rs := &rows[k]
		if rs.dead {
			ps.rowMap[k] = -1
			continue
		}
		ps.rowMap[k] = red.NumRows()
		r := red.AddRow(m.rows[k].name, rs.op, rs.rhs)
		for c, v := range rs.terms {
			nv := ps.varMap[int(c)]
			if nv < 0 {
				return nil, fmt.Errorf("lp: presolve internal error: fixed variable %d still in row %d", c, k)
			}
			red.AddTerm(r, VarID(nv), v)
		}
	}
	ps.reduced = red
	return ps, nil
}

// postsolve maps a reduced-model solution back onto the original model.
func (ps *presolved) postsolve(m *Model, sol *Solution) *Solution {
	n := len(m.vars)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		if ps.varMap[j] < 0 {
			x[j] = ps.fixedVal[j]
		} else {
			x[j] = sol.X[ps.varMap[j]]
		}
	}
	obj := 0.0
	for j, v := range m.vars {
		obj += v.obj * x[j]
	}
	duals := make([]float64, len(m.rows))
	for k := range m.rows {
		if rk := ps.rowMap[k]; rk >= 0 && rk < len(sol.Duals) {
			duals[k] = sol.Duals[rk]
		}
	}
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
		Status:       sol.Status,
		Objective:    obj,
		X:            x,
		Duals:        duals,
		Iters:        sol.Iters,
		LexIters:     sol.LexIters,
		PrimalInfeas: infeas,
	}
}
