package lp

import (
	"math"
	"reflect"
	"testing"
)

// Solve optimizes the model with default options.
func (m *Model) Solve() (*Solution, error) { return m.SolveWith(Options{}) }

// setRHS replaces the right-hand side of row r: the mutation tests make
// between re-solves of one model.
func (m *Model) setRHS(r RowID, rhs float64) { m.rows[r].rhs = rhs }

// rhs returns the right-hand side of row r.
func (m *Model) rhs(r RowID) float64 { return m.rows[r].rhs }

func mustSolve(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestTextbookMax(t *testing.T) {
	m := NewModel("textbook", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	r1 := m.AddRow("r1", LE, 4)
	m.AddTerm(r1, x, 1)
	r2 := m.AddRow("r2", LE, 12)
	m.AddTerm(r2, y, 2)
	r3 := m.AddRow("r3", LE, 18)
	m.AddTerm(r3, x, 3)
	m.AddTerm(r3, y, 2)

	sol := mustSolve(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-36) > 1e-6 {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
	if math.Abs(sol.Value(x)-2) > 1e-6 || math.Abs(sol.Value(y)-6) > 1e-6 {
		t.Errorf("x = %v", sol.X)
	}
}

func TestMinimizeEquality(t *testing.T) {
	// min x + 2y s.t. x + y = 3, x − y = 1 ⇒ (2, 1), obj 4.
	m := NewModel("eq", Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 2)
	c1 := m.AddRow("c1", EQ, 3)
	m.AddTerm(c1, x, 1)
	m.AddTerm(c1, y, 1)
	c2 := m.AddRow("c2", EQ, 1)
	m.AddTerm(c2, x, 1)
	m.AddTerm(c2, y, -1)
	sol := mustSolve(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("got %v obj %g", sol.Status, sol.Objective)
	}
}

func TestBoundedVariables(t *testing.T) {
	// max x + y with x ∈ [0,2], y ∈ [0,3], x + y ≤ 4 ⇒ 4.
	m := NewModel("bounds", Maximize)
	x := m.AddVar("x", 0, 2, 1)
	y := m.AddVar("y", 0, 3, 1)
	r := m.AddRow("cap", LE, 4)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, 1)
	sol := mustSolve(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 4", sol.Status, sol.Objective)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x with x ∈ [−5, 5] and a vacuous row to exercise the simplex.
	m := NewModel("neglb", Minimize)
	x := m.AddVar("x", -5, 5, 1)
	r := m.AddRow("vac", LE, 100)
	m.AddTerm(r, x, 1)
	sol := mustSolve(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective+5) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal -5", sol.Status, sol.Objective)
	}
}

func TestBoundFlip(t *testing.T) {
	// max x + εy where x ∈ [0,10] never limited by the row: the optimal
	// pivot sequence includes a bound flip for x.
	m := NewModel("flip", Maximize)
	x := m.AddVar("x", 0, 10, 1)
	y := m.AddVar("y", 0, Inf, 0.001)
	r := m.AddRow("row", LE, 100)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, 1)
	sol := mustSolve(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	want := 10 + 0.001*90
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, want %g", sol.Objective, want)
	}
	if math.Abs(sol.Value(x)-10) > 1e-6 {
		t.Errorf("x = %g, want 10 (bound flip)", sol.Value(x))
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel("inf", Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	r := m.AddRow("r", LE, -1)
	m.AddTerm(r, x, 1)
	sol := mustSolve(t, m)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel("unb", Maximize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 0)
	r := m.AddRow("r", LE, 1)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, -1)
	sol := mustSolve(t, m)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFixedVariable(t *testing.T) {
	// x fixed at 3 by its bounds participates in constraints.
	m := NewModel("fixed", Maximize)
	x := m.AddVar("x", 3, 3, 0)
	y := m.AddVar("y", 0, Inf, 1)
	r := m.AddRow("r", LE, 10)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, 1)
	sol := mustSolve(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-7) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 7", sol.Status, sol.Objective)
	}
	if math.Abs(sol.Value(x)-3) > 1e-9 {
		t.Errorf("x = %g, want 3", sol.Value(x))
	}
}

func TestNoRows(t *testing.T) {
	m := NewModel("norows", Minimize)
	x := m.AddVar("x", -2, 5, 1)
	y := m.AddVar("y", 0, 4, -1)
	sol := mustSolve(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-2-4)) > 1e-9 {
		t.Errorf("objective = %g, want -6", sol.Objective)
	}
	_ = x
	_ = y
}

func TestNoRowsUnbounded(t *testing.T) {
	m := NewModel("norowsu", Maximize)
	m.AddVar("x", 0, Inf, 1)
	sol := mustSolve(t, m)
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestValidation(t *testing.T) {
	m := NewModel("bad", Minimize)
	m.AddVar("x", math.Inf(-1), 1, 0) // infinite lower bound is rejected
	if _, err := m.Solve(); err == nil {
		t.Error("expected error for -Inf lower bound")
	}

	m2 := NewModel("bad2", Minimize)
	m2.AddVar("x", 2, 1, 0) // inverted bounds
	if _, err := m2.Solve(); err == nil {
		t.Error("expected error for inverted bounds")
	}

	m3 := NewModel("bad3", Minimize)
	x := m3.AddVar("x", 0, 1, 0)
	r := m3.AddRow("r", LE, math.NaN())
	m3.AddTerm(r, x, 1)
	if _, err := m3.Solve(); err == nil {
		t.Error("expected error for NaN rhs")
	}
}

func TestDualsAndSlackness(t *testing.T) {
	// For the textbook LP, verify complementary slackness: y_k > 0 implies
	// the row is tight, and reduced costs of basic structurals are 0.
	m := NewModel("duals", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	rows := []RowID{
		m.AddRow("r1", LE, 4),
		m.AddRow("r2", LE, 12),
		m.AddRow("r3", LE, 18),
	}
	m.AddTerm(rows[0], x, 1)
	m.AddTerm(rows[1], y, 2)
	m.AddTerm(rows[2], x, 3)
	m.AddTerm(rows[2], y, 2)
	sol := mustSolve(t, m)
	if len(sol.Duals) != 3 {
		t.Fatalf("duals len %d", len(sol.Duals))
	}
	acts := []float64{sol.Value(x), 2 * sol.Value(y), 3*sol.Value(x) + 2*sol.Value(y)}
	rhs := []float64{4, 12, 18}
	for k := range acts {
		if math.Abs(sol.Duals[k]) > 1e-9 && math.Abs(acts[k]-rhs[k]) > 1e-6 {
			t.Errorf("row %d: dual %g nonzero but slack %g", k, sol.Duals[k], rhs[k]-acts[k])
		}
	}
	// Strong duality for the min form: c̃·x = y·b with c̃ = −c (Maximize).
	yb := 0.0
	for k := range rhs {
		yb += sol.Duals[k] * rhs[k]
	}
	if math.Abs(yb-(-sol.Objective)) > 1e-6 {
		t.Errorf("strong duality: y·b = %g, want %g", yb, -sol.Objective)
	}
}

func TestPricingOptions(t *testing.T) {
	build := func() *Model {
		m := NewModel("opt", Maximize)
		x := m.AddVar("x", 0, Inf, 3)
		y := m.AddVar("y", 0, Inf, 5)
		r3 := m.AddRow("r3", LE, 18)
		m.AddTerm(r3, x, 3)
		m.AddTerm(r3, y, 2)
		r1 := m.AddRow("r1", LE, 4)
		m.AddTerm(r1, x, 1)
		r2 := m.AddRow("r2", LE, 12)
		m.AddTerm(r2, y, 2)
		return m
	}
	for _, pr := range []Pricing{Dantzig, Bland} {
		sol, err := build().SolveWith(Options{Pricing: pr})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-36) > 1e-6 {
			t.Errorf("pricing %v: got %v obj %g", pr, sol.Status, sol.Objective)
		}
	}
}

func TestIterLimitStatus(t *testing.T) {
	m := NewModel("il", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	r3 := m.AddRow("r3", LE, 18)
	m.AddTerm(r3, x, 3)
	m.AddTerm(r3, y, 2)
	sol, err := m.SolveWith(Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded",
		IterLimit: "iteration limit", Numerical: "numerical failure",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d: %q != %q", st, st.String(), want)
		}
	}
	if Minimize.String() != "minimize" || Maximize.String() != "maximize" {
		t.Error("sense strings")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("relop strings")
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel("acc", Minimize)
	x := m.AddVar("x", 0, 1, 2)
	if m.name != "acc" || m.Sense() != Minimize {
		t.Error("name/sense")
	}
	if m.NumVars() != 1 || m.vars[x].name != "x" {
		t.Error("vars")
	}
	m.SetObj(x, 5)
	m.SetBounds(x, 1, 2)
	r := m.AddRow("r", GE, 0)
	m.AddTerm(r, x, 0) // zero coefficient dropped
	if m.NumRows() != 1 {
		t.Error("rows")
	}
	sol := mustSolve(t, m)
	if math.Abs(sol.Objective-5) > 1e-9 {
		t.Errorf("objective %g, want 5 (x at lb=1, obj 5)", sol.Objective)
	}
}

// TestForkSharesRowsCopyOnWrite pins Model.Fork: the fork reads the rows'
// coefficients out of the original's storage, bounds, objective and
// right-hand sides set on one model do not reach the other, and a term added
// to a shared row on either side — directly or through AddColumn, in either
// order — moves that row to storage of its own instead of writing where the
// other model could come to see it.
func TestForkSharesRowsCopyOnWrite(t *testing.T) {
	m := slicedPathLP(3, 5, 4, 2, 2, 3, 11)
	want := m.Clone() // what m must still be at every step below
	// Two rows whose term slices have room to append in place: where a fork
	// that only copied the slice headers would let one model write into the
	// other's next slot.
	var roomy []RowID
	for i, r := range m.rows {
		if len(r.terms) > 0 && cap(r.terms) > len(r.terms) {
			roomy = append(roomy, RowID(i))
		}
	}
	if len(roomy) < 3 {
		t.Fatalf("only %d rows with spare capacity", len(roomy))
	}
	r0, r1, r2 := roomy[0], roomy[1], roomy[2]
	same := func(what string, got, want *Model) {
		t.Helper()
		if !reflect.DeepEqual(got.vars, want.vars) || !reflect.DeepEqual(got.rows, want.rows) {
			t.Fatalf("%s: the model changed", what)
		}
	}

	f := m.Fork("probe")
	if f.name != "probe" || f.Sense() != m.Sense() {
		t.Fatalf("fork is named %q, sense %v", f.name, f.Sense())
	}
	same("forking", m, want)
	same("the fork", f, want)
	for i := range m.rows {
		if len(m.rows[i].terms) > 0 && &f.rows[i].terms[0] != &m.rows[i].terms[0] {
			t.Fatalf("row %d: the fork copied the terms", i)
		}
	}

	// Numbers: each model has its own.
	f.SetBounds(1, 0, 0)
	f.SetObj(0, 3)
	f.setRHS(0, 9)
	same("bounds, objective and right-hand side set on the fork", m, want)
	fwant := want.Clone()
	fwant.SetBounds(1, 0, 0)
	fwant.SetObj(0, 3)
	fwant.setRHS(0, 9)
	m.SetBounds(2, 0, 1)
	want.SetBounds(2, 0, 1)
	same("SetBounds on the original", f, fwant)

	// Terms: the fork first, then the original, on the same shared row; then
	// the other order on another row, through AddColumn.
	f.AddTerm(r0, 1, 5)
	fwant.AddTerm(r0, 1, 5)
	same("AddTerm on the fork", m, want)
	m.AddTerm(r0, 2, 7)
	want.AddTerm(r0, 2, 7)
	same("AddTerm on the original", f, fwant)
	if _, err := m.AddColumn("c", 0, 1, 1, []RowID{r1, r2}, []float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	want.AddColumn("c", 0, 1, 1, []RowID{r1, r2}, []float64{2, 3})
	same("AddColumn on the original", f, fwant)
	if _, err := f.AddColumn("d", 0, 2, 1, []RowID{r1, r2}, []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	fwant.AddColumn("d", 0, 2, 1, []RowID{r1, r2}, []float64{4, 5})
	same("AddColumn on the fork", m, want)
	same("the fork after both grew", f, fwant)

	// A new row belongs to the model it was added to.
	f.AddTerm(f.AddRow("extra", LE, 1), 0, 1)
	same("AddRow on the fork", m, want)

	// And solving one does not disturb the other.
	before := mustSolve(t, m).Objective
	mustSolve(t, f)
	if got := mustSolve(t, m).Objective; !sameBits(got, before) {
		t.Fatalf("the original solves to %b after the fork was solved, %b before", got, before)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Many redundant tight rows at the optimum.
	m := NewModel("degen", Maximize)
	x := m.AddVar("x", 0, Inf, 2)
	y := m.AddVar("y", 0, Inf, 3)
	for i := 0; i < 6; i++ {
		r := m.AddRow("r", LE, 4)
		m.AddTerm(r, x, 1)
		m.AddTerm(r, y, 1)
	}
	r := m.AddRow("extra", LE, 6)
	m.AddTerm(r, x, 2)
	m.AddTerm(r, y, 1)
	sol := mustSolve(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-12) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 12", sol.Status, sol.Objective)
	}
}

func TestPartialDantzigAgreesOnRandomLPs(t *testing.T) {
	// Partial pricing must reach the same optimum as full Dantzig.
	for seed := int64(0); seed < 20; seed++ {
		m := randomDenseLP(60, 40, seed)
		full, err := m.SolveWith(Options{Pricing: Dantzig})
		if err != nil {
			t.Fatal(err)
		}
		part, err := m.SolveWith(Options{Pricing: PartialDantzig})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != part.Status {
			t.Fatalf("seed %d: status %v vs %v", seed, full.Status, part.Status)
		}
		if full.Status == Optimal && math.Abs(full.Objective-part.Objective) > 1e-6*(1+math.Abs(full.Objective)) {
			t.Fatalf("seed %d: objective %g vs %g", seed, full.Objective, part.Objective)
		}
	}
}
