package lp

import (
	"math"
	"math/rand"
	"testing"
)

func textbookModel() (*Model, VarID, VarID, []RowID) {
	m := NewModel("tb", Maximize)
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
	return m, x, y, rows
}

func TestSensitivityTextbook(t *testing.T) {
	// Classic result for max 3x+5y, x≤4, 2y≤12, 3x+2y≤18 at (2,6):
	// c_x range [0, 7.5], c_y range [2, +inf);
	// rhs r2 range [6, 18], rhs r3 range [12, 24], r1 slack ⇒ [2, +inf).
	m, x, y, rows := textbookModel()
	sol, sens, err := m.SolveWithSensitivity(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	cx := sens.Cost[x]
	if math.Abs(cx.Lo-0) > 1e-6 || math.Abs(cx.Hi-7.5) > 1e-6 {
		t.Errorf("c_x range [%g, %g], want [0, 7.5]", cx.Lo, cx.Hi)
	}
	cy := sens.Cost[y]
	if math.Abs(cy.Lo-2) > 1e-6 || !math.IsInf(cy.Hi, 1) {
		t.Errorf("c_y range [%g, %g], want [2, +inf)", cy.Lo, cy.Hi)
	}
	r2 := sens.RHS[rows[1]]
	if math.Abs(r2.Lo-6) > 1e-6 || math.Abs(r2.Hi-18) > 1e-6 {
		t.Errorf("rhs r2 range [%g, %g], want [6, 18]", r2.Lo, r2.Hi)
	}
	r3 := sens.RHS[rows[2]]
	if math.Abs(r3.Lo-12) > 1e-6 || math.Abs(r3.Hi-24) > 1e-6 {
		t.Errorf("rhs r3 range [%g, %g], want [12, 24]", r3.Lo, r3.Hi)
	}
	r1 := sens.RHS[rows[0]]
	if math.Abs(r1.Lo-2) > 1e-6 || !math.IsInf(r1.Hi, 1) {
		t.Errorf("rhs r1 range [%g, %g], want [2, +inf)", r1.Lo, r1.Hi)
	}
}

// TestSensitivityAgainstResolve validates the ranges empirically on random
// LPs: inside a cost range the optimal point is unchanged; inside an RHS
// range the objective moves linearly with slope equal to the dual.
func TestSensitivityAgainstResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		m := randomDenseLP(6+rng.Intn(5), 4+rng.Intn(4), int64(trial))
		sol, sens, err := m.SolveWithSensitivity(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}

		// Cost ranging: nudge one coefficient to the midpoint of its
		// finite range; the optimal point must not move.
		for j := 0; j < m.NumVars(); j++ {
			r := sens.Cost[j]
			if math.IsInf(r.Lo, -1) || math.IsInf(r.Hi, 1) || r.Hi-r.Lo < 1e-6 {
				continue
			}
			orig := m.vars[j].obj
			mid := (r.Lo + r.Hi) / 2
			m.SetObj(VarID(j), mid)
			sol2, err := m.Solve()
			m.SetObj(VarID(j), orig)
			if err != nil {
				t.Fatal(err)
			}
			if sol2.Status != Optimal {
				t.Fatalf("trial %d var %d: re-solve %v", trial, j, sol2.Status)
			}
			// Objectives computed at the two cost vectors on sol2's point
			// and sol's point must agree (same optimal point up to
			// degeneracy): compare objective values with the midpoint cost.
			want := sol.Objective + (mid-orig)*sol.X[j]
			if math.Abs(sol2.Objective-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("trial %d var %d: midpoint objective %g, want %g (range [%g, %g])",
					trial, j, sol2.Objective, want, r.Lo, r.Hi)
			}
			checked++
			break
		}

		// RHS ranging: inside the range the dual predicts the objective.
		for k := 0; k < m.NumRows(); k++ {
			r := sens.RHS[k]
			orig := m.rows[k].rhs
			if math.IsInf(r.Lo, -1) || math.IsInf(r.Hi, 1) || r.Hi-r.Lo < 1e-6 {
				continue
			}
			mid := (r.Lo + r.Hi) / 2
			m.rows[k].rhs = mid
			sol2, err := m.Solve()
			m.rows[k].rhs = orig
			if err != nil {
				t.Fatal(err)
			}
			if sol2.Status != Optimal {
				t.Fatalf("trial %d row %d: re-solve %v inside RHS range", trial, k, sol2.Status)
			}
			// Min-form dual slope; the model is Maximize in randomDenseLP,
			// so the user-objective slope is −dual.
			slope := sol.Duals[k]
			if m.Sense() == Maximize {
				slope = -slope
			}
			want := sol.Objective + (mid-orig)*slope
			if math.Abs(sol2.Objective-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("trial %d row %d: objective %g, dual predicts %g (range [%g, %g], dual %g)",
					trial, k, sol2.Objective, want, r.Lo, r.Hi, sol.Duals[k])
			}
			checked++
			break
		}
	}
	if checked == 0 {
		t.Fatal("no finite ranges exercised — generator too loose")
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Lo: 1, Hi: 3}
	if !r.Contains(1) || !r.Contains(3) || !r.Contains(2) {
		t.Error("inclusive bounds")
	}
	if r.Contains(0.5) || r.Contains(3.5) {
		t.Error("outside accepted")
	}
}

func TestSensitivityNonOptimal(t *testing.T) {
	m := NewModel("inf", Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	r := m.AddRow("r", LE, -1)
	m.AddTerm(r, x, 1)
	sol, sens, err := m.SolveWithSensitivity(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible || sens != nil {
		t.Fatalf("got %v sens=%v, want infeasible and nil", sol.Status, sens)
	}
}
