// Package lp provides a linear-programming solver built from scratch on the
// standard library. It implements a two-phase revised simplex method for
// bounded-variable problems
//
//	min (or max)  c·x
//	subject to    row_k: a_k·x (≤ | = | ≥) b_k    for every constraint k
//	              l_j ≤ x_j ≤ u_j                 for every variable j
//
// with a sparse column (CSC) constraint matrix, an LU-factorized basis with
// a left-looking factorization over an ordered sparse reach, product-form
// (eta) basis updates, periodic refactorization, and a Bland anti-cycling
// fallback. The pricing rule is PartialDantzig (the Options.Pricing zero
// value) at every model size; Dantzig and Bland are kept as oracles that
// tests and the pricing ablation select by name.
//
// The package replaces the commercial CPLEX solver used in the paper
// "Slotted Wavelength Scheduling for Bulk Transfers in Research Networks"
// (Wang, Ranka, Xia; ICPP 2009): the scheduling algorithms only require
// optimal basic (vertex) solutions, which any correct simplex provides.
package lp

import (
	"fmt"
	"math"
)

// Sense selects the optimization direction of a model.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota
	Maximize
)

func (s Sense) String() string {
	if s == Maximize {
		return "maximize"
	}
	return "minimize"
}

// RelOp is the relational operator of a constraint row.
type RelOp int

// Constraint senses.
const (
	LE RelOp = iota // ≤
	GE              // ≥
	EQ              // =
)

func (op RelOp) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("RelOp(%d)", int(op))
}

// VarID identifies a variable within a Model.
type VarID int

// RowID identifies a constraint row within a Model.
type RowID int

// Inf is positive infinity, for use as an unbounded upper bound.
var Inf = math.Inf(1)

type variable struct {
	name string
	lb   float64
	ub   float64
	obj  float64
}

type term struct {
	col  VarID
	coef float64
}

type row struct {
	name  string
	op    RelOp
	rhs   float64
	terms []term
}

// Model is a linear program under construction. The zero value is not
// usable; create models with NewModel. Models are not safe for concurrent
// mutation. A Model holds no solver memory: each solve borrows its working
// arrays from a package free list and returns them when it finishes, so
// distinct models — or one model that nothing mutates — may be solved in
// parallel.
type Model struct {
	name  string
	sense Sense
	vars  []variable
	rows  []row
}

// NewModel returns an empty model with the given name and optimization
// direction.
func NewModel(name string, sense Sense) *Model {
	return &Model{name: name, sense: sense}
}

// Sense returns the model's optimization direction.
func (m *Model) Sense() Sense { return m.sense }

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumRows returns the number of constraint rows added so far.
func (m *Model) NumRows() int { return len(m.rows) }

// AddVar adds a variable with bounds [lb, ub] and objective coefficient obj,
// returning its identifier. lb must be finite; ub may be lp.Inf.
func (m *Model) AddVar(name string, lb, ub, obj float64) VarID {
	m.vars = append(m.vars, variable{name: name, lb: lb, ub: ub, obj: obj})
	return VarID(len(m.vars) - 1)
}

// SetObj replaces the objective coefficient of v.
func (m *Model) SetObj(v VarID, obj float64) {
	m.vars[v].obj = obj
}

// SetBounds replaces the bounds of v.
func (m *Model) SetBounds(v VarID, lb, ub float64) {
	m.vars[v].lb = lb
	m.vars[v].ub = ub
}

// Bounds returns the bounds of v.
func (m *Model) Bounds(v VarID) (lb, ub float64) {
	return m.vars[v].lb, m.vars[v].ub
}

// Clone returns a deep copy of the model; mutating one does not affect
// the other.
func (m *Model) Clone() *Model {
	c := &Model{name: m.name, sense: m.sense}
	c.vars = append([]variable(nil), m.vars...)
	c.rows = make([]row, len(m.rows))
	for i, r := range m.rows {
		c.rows[i] = row{name: r.name, op: r.op, rhs: r.rhs,
			terms: append([]term(nil), r.terms...)}
	}
	return c
}

// Fork returns a model named name with m's variables and rows whose bounds,
// objective and right-hand sides are its own — SetBounds and SetObj on one
// model do not reach the other — while the rows' coefficients, which
// neither of those touch, stay in the storage m already holds. It is Clone
// for the probe pattern: the same constraint matrix re-solved under other
// bounds, without rebuilding or copying it. Solver memory is no part of
// either model — each solve, and each Incremental, borrows its own — so a
// fork costs its variables and row headers alone.
//
// Both models may still grow. Fork leaves every row's term slice, on both
// sides, without spare capacity, so the first AddTerm (or AddColumn) to reach
// a shared row moves that row to storage of its own, and the other model
// never sees the new term.
func (m *Model) Fork(name string) *Model {
	c := &Model{name: name, sense: m.sense}
	c.vars = append([]variable(nil), m.vars...)
	c.rows = make([]row, len(m.rows))
	for i := range m.rows {
		r := &m.rows[i]
		r.terms = r.terms[:len(r.terms):len(r.terms)]
		c.rows[i] = *r
	}
	return c
}

// AddRow adds an empty constraint row `(terms) op rhs`, returning its
// identifier. Coefficients are attached with AddTerm.
func (m *Model) AddRow(name string, op RelOp, rhs float64) RowID {
	m.rows = append(m.rows, row{name: name, op: op, rhs: rhs})
	return RowID(len(m.rows) - 1)
}

// AddTerm adds coef·v to row r. Repeated terms for the same variable are
// summed during extraction.
func (m *Model) AddTerm(r RowID, v VarID, coef float64) {
	if coef == 0 {
		return
	}
	m.rows[r].terms = append(m.rows[r].terms, term{col: v, coef: coef})
}

// AddColumn adds a variable together with its constraint-matrix column in
// one call: the new variable gets bounds [lb, ub], objective coefficient
// obj, and coefficient coefs[i] in rows[i]. rows and coefs must have equal
// length and every row must already exist.
//
// Appending columns (and rows) to an already-solved model does not disturb
// a Basis captured from it: the existing basis matrix is untouched, so
// Basis.Extend can remap the snapshot onto the grown shape and the next
// warm solve prices the new columns in from the old optimum. This is the
// column-generation hot path.
func (m *Model) AddColumn(name string, lb, ub, obj float64, rows []RowID, coefs []float64) (VarID, error) {
	if len(rows) != len(coefs) {
		return 0, fmt.Errorf("lp: AddColumn %q: %d rows but %d coefficients", name, len(rows), len(coefs))
	}
	for _, r := range rows {
		if int(r) < 0 || int(r) >= len(m.rows) {
			return 0, fmt.Errorf("lp: AddColumn %q: unknown row %d", name, r)
		}
	}
	v := m.AddVar(name, lb, ub, obj)
	for i, r := range rows {
		m.AddTerm(r, v, coefs[i])
	}
	return v, nil
}

// Validate checks the model for structural errors: non-finite or inverted
// bounds, NaN coefficients, and out-of-range variable references.
func (m *Model) Validate() error {
	for j, v := range m.vars {
		if math.IsNaN(v.lb) || math.IsInf(v.lb, 0) {
			return fmt.Errorf("lp: variable %q (%d): lower bound must be finite, got %v", v.name, j, v.lb)
		}
		if math.IsNaN(v.ub) || math.IsInf(v.ub, -1) {
			return fmt.Errorf("lp: variable %q (%d): bad upper bound %v", v.name, j, v.ub)
		}
		if v.ub < v.lb {
			return fmt.Errorf("lp: variable %q (%d): upper bound %g below lower bound %g", v.name, j, v.ub, v.lb)
		}
		if math.IsNaN(v.obj) || math.IsInf(v.obj, 0) {
			return fmt.Errorf("lp: variable %q (%d): bad objective coefficient %v", v.name, j, v.obj)
		}
	}
	for k, r := range m.rows {
		if math.IsNaN(r.rhs) || math.IsInf(r.rhs, 0) {
			return fmt.Errorf("lp: row %q (%d): bad rhs %v", r.name, k, r.rhs)
		}
		for _, t := range r.terms {
			if int(t.col) < 0 || int(t.col) >= len(m.vars) {
				return fmt.Errorf("lp: row %q (%d): term references unknown variable %d", r.name, k, t.col)
			}
			if math.IsNaN(t.coef) || math.IsInf(t.coef, 0) {
				return fmt.Errorf("lp: row %q (%d): bad coefficient %v", r.name, k, t.coef)
			}
		}
	}
	return nil
}
