// The TestPresolve* tests keep the names of the reduction pass they were
// written for, which is gone: each now checks how the plain simplex solves
// a model class that pass used to rewrite — a fixed variable, singleton
// rows (alone, chained through an equality, or contradicting each other),
// a row left with only a fixed variable, and a row holding the same
// variable twice.

package lp

import (
	"math"
	"testing"
)

func TestPresolveFixedVariable(t *testing.T) {
	// x fixed at 2, y free: max x + y, x + y ≤ 5 ⇒ y = 3, obj 5.
	m := NewModel("fix", Maximize)
	x := m.AddVar("x", 2, 2, 1)
	y := m.AddVar("y", 0, Inf, 1)
	r := m.AddRow("r", LE, 5)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 5", sol.Status, sol.Objective)
	}
	if sol.Value(x) != 2 || math.Abs(sol.Value(y)-3) > 1e-6 {
		t.Errorf("x = %v", sol.X)
	}
}

func TestPresolveSingletonRow(t *testing.T) {
	// Singleton rows become bounds: 2x ≤ 6 ⇒ x ≤ 3.
	m := NewModel("single", Maximize)
	x := m.AddVar("x", 0, Inf, 1)
	r := m.AddRow("r", LE, 6)
	m.AddTerm(r, x, 2)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestPresolveSingletonChainFixes(t *testing.T) {
	// x = 2 via an equality singleton, then y via substitution:
	// x = 2, x + y = 5 ⇒ y = 3, min y ⇒ 3.
	m := NewModel("chain", Minimize)
	x := m.AddVar("x", 0, Inf, 0)
	y := m.AddVar("y", 0, Inf, 1)
	r1 := m.AddRow("r1", EQ, 2)
	m.AddTerm(r1, x, 1)
	r2 := m.AddRow("r2", EQ, 5)
	m.AddTerm(r2, x, 1)
	m.AddTerm(r2, y, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 3", sol.Status, sol.Objective)
	}
	if math.Abs(sol.Value(x)-2) > 1e-9 {
		t.Errorf("x = %g, want 2 (fixed by the equality row)", sol.Value(x))
	}
}

func TestPresolveDetectsInfeasibleBounds(t *testing.T) {
	// Singletons force x ≥ 4 and x ≤ 2.
	m := NewModel("inf", Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	r1 := m.AddRow("r1", GE, 4)
	m.AddTerm(r1, x, 1)
	r2 := m.AddRow("r2", LE, 2)
	m.AddTerm(r2, x, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestPresolveEmptyRowInfeasible(t *testing.T) {
	// A row with only a fixed variable: 1·x ≤ 0 with x fixed at 2 → 2 ≤ 0.
	m := NewModel("empty", Minimize)
	x := m.AddVar("x", 2, 2, 0)
	r := m.AddRow("r", LE, 0)
	m.AddTerm(r, x, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestPresolveDuplicateTermsMerged(t *testing.T) {
	// x + x ≤ 4 is really 2x ≤ 4 ⇒ x ≤ 2 (singleton after merging).
	m := NewModel("dup", Maximize)
	x := m.AddVar("x", 0, Inf, 1)
	r := m.AddRow("r", LE, 4)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, x, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 2", sol.Status, sol.Objective)
	}
}
