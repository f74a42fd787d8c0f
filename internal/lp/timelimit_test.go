package lp

import (
	"errors"
	"math"
	"testing"
	"time"
)

// textbookModel is max 3x + 5y subject to x ≤ 4, 2y ≤ 12 and 3x + 2y ≤ 18,
// whose optimum is 36 at (2, 6).
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

func TestTimeLimitExpired(t *testing.T) {
	// A 1 ns budget is expired by the time the first pivot-loop check
	// runs, so the solve must abort with the typed sentinel before doing
	// any real work.
	m, _, _, _ := textbookModel()
	sol, err := m.SolveWith(Options{TimeLimit: time.Nanosecond})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
	if sol == nil || sol.Status != TimeLimit {
		t.Fatalf("solution %+v, want Status TimeLimit", sol)
	}
	if TimeLimit.String() != "time limit" {
		t.Errorf("TimeLimit.String() = %q", TimeLimit.String())
	}
}

func TestTimeLimitGenerous(t *testing.T) {
	// A generous budget must not perturb the solve at all.
	m, _, _, _ := textbookModel()
	sol, err := m.SolveWith(Options{TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 36", sol.Status, sol.Objective)
	}
}

func TestTimeLimitDualSimplex(t *testing.T) {
	// Warm-start path: solve once without a budget, then arm an expired
	// deadline before the dual re-solve. The incremental solver must
	// surface the timeout rather than fall back to a fresh full solve
	// (which would double the wall-clock budget).
	m, _, y, _ := textbookModel()
	inc := NewIncremental(m, Options{})
	sol, err := inc.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("first solve: %v %v", sol, err)
	}

	inc.opt.TimeLimit = time.Nanosecond // white-box: arm after the warm solve
	m.SetBounds(y, 0, 3)                // perturb a bound so the dual loop runs
	sol, err = inc.Solve()
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
	if sol == nil || sol.Status != TimeLimit {
		t.Fatalf("solution %+v, want Status TimeLimit", sol)
	}

	// The basis was invalidated; with the budget lifted the next call
	// recovers via a full solve.
	inc.opt.TimeLimit = 0
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-27) > 1e-6 {
		t.Fatalf("recovery solve: %v %g, want optimal 27", sol.Status, sol.Objective)
	}
}
