package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildKnapsackLP returns max 3x+2y s.t. x+y<=4, x<=3 with the two row IDs.
func buildKnapsackLP() (*Model, RowID, RowID) {
	m := NewModel("colgen-base", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 2)
	r1 := m.AddRow("cap", LE, 4)
	m.AddTerm(r1, x, 1)
	m.AddTerm(r1, y, 1)
	r2 := m.AddRow("xcap", LE, 3)
	m.AddTerm(r2, x, 1)
	return m, r1, r2
}

func TestAddColumnValidation(t *testing.T) {
	m, r1, _ := buildKnapsackLP()
	if _, err := m.AddColumn("bad", 0, Inf, 1, []RowID{r1}, nil); err == nil {
		t.Fatalf("AddColumn with mismatched coefs: want error")
	}
	if _, err := m.AddColumn("bad", 0, Inf, 1, []RowID{RowID(99)}, []float64{1}); err == nil {
		t.Fatalf("AddColumn with unknown row: want error")
	}
	if m.NumVars() != 2 {
		t.Fatalf("failed adds must not leave variables behind: NumVars=%d", m.NumVars())
	}
}

// TestExtendWarmAfterAddColumn is the core column-generation contract: a
// basis captured before AddColumn, remapped with Extend, warm-starts the
// grown model and reaches the same optimum as a cold solve of it.
func TestExtendWarmAfterAddColumn(t *testing.T) {
	m, r1, _ := buildKnapsackLP()
	sol, err := m.SolveWith(Options{CaptureBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("base solve: %v status %v", err, sol.Status)
	}
	if math.Abs(sol.Objective-11) > 1e-9 {
		t.Fatalf("base objective = %g, want 11", sol.Objective)
	}

	// Attractive column: z with obj 4 loading only the shared cap row.
	if _, err := m.AddColumn("z", 0, Inf, 4, []RowID{r1}, []float64{1}); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	warm, err := m.SolveWith(Options{WarmStart: sol.Basis.Extend(1, 0), CaptureBasis: true})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm extended solve: %v status %v", err, warm.Status)
	}
	if warm.Warm != "hit" {
		t.Fatalf("extended basis was not reused: Warm=%q", warm.Warm)
	}
	// z=4 dominates: 3x <= 9 forgone for 4z = 16... optimum is z=4, x via xcap slack unused.
	cold, err := m.Solve()
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold solve of grown model: %v status %v", err, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("warm objective %g != cold objective %g", warm.Objective, cold.Objective)
	}
	if math.Abs(warm.Objective-16) > 1e-9 {
		t.Fatalf("grown objective = %g, want 16", warm.Objective)
	}
}

// TestExtendWarmAfterAddColumnAndRow grows both dimensions: a new column
// that is the first to load a freshly added LE row.
func TestExtendWarmAfterAddColumnAndRow(t *testing.T) {
	m, r1, _ := buildKnapsackLP()
	sol, err := m.SolveWith(Options{CaptureBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("base solve: %v status %v", err, sol.Status)
	}

	r3 := m.AddRow("zcap", LE, 2)
	if _, err := m.AddColumn("z", 0, Inf, 10, []RowID{r1, r3}, []float64{1, 1}); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	warm, err := m.SolveWith(Options{WarmStart: sol.Basis.Extend(1, 1)})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm extended solve: %v status %v", err, warm.Status)
	}
	if warm.Warm != "hit" {
		t.Fatalf("extended basis was not reused: Warm=%q", warm.Warm)
	}
	// z capped at 2 by the new row: z=2, then x=2 fills cap (x<=3 slack), y=0.
	want := 10.0*2 + 3.0*2
	if math.Abs(warm.Objective-want) > 1e-9 {
		t.Fatalf("grown objective = %g, want %g", warm.Objective, want)
	}
	cold, err := m.Solve()
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold solve: %v status %v", err, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("warm objective %g != cold objective %g", warm.Objective, cold.Objective)
	}
}

// TestExtendUnattractiveColumn: appending a column that cannot improve the
// optimum leaves the warm re-solve at the same objective, with the column
// nonbasic at zero.
func TestExtendUnattractiveColumn(t *testing.T) {
	m, r1, _ := buildKnapsackLP()
	sol, err := m.SolveWith(Options{CaptureBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("base solve: %v", err)
	}
	z, err := m.AddColumn("dud", 0, Inf, 0.5, []RowID{r1}, []float64{1})
	if err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	warm, err := m.SolveWith(Options{WarmStart: sol.Basis.Extend(1, 0)})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Warm != "hit" {
		t.Fatalf("Warm=%q, want hit", warm.Warm)
	}
	if math.Abs(warm.Objective-sol.Objective) > 1e-9 {
		t.Fatalf("objective moved from %g to %g on an unattractive column", sol.Objective, warm.Objective)
	}
	if warm.X[z] != 0 {
		t.Fatalf("dud column took value %g, want 0", warm.X[z])
	}
}

func TestExtendNilAndZero(t *testing.T) {
	var nb *Basis
	if nb.Extend(1, 0) != nil {
		t.Fatalf("nil basis Extend must return nil")
	}
	m, _, _ := buildKnapsackLP()
	sol, err := m.SolveWith(Options{CaptureBasis: true})
	if err != nil || sol.Basis == nil {
		t.Fatalf("capture: %v", err)
	}
	if sol.Basis.Extend(-1, 0) != nil || sol.Basis.Extend(0, -1) != nil {
		t.Fatalf("negative Extend counts must return nil")
	}
	warm, err := m.SolveWith(Options{WarmStart: sol.Basis.Extend(0, 0)})
	if err != nil || warm.Status != Optimal || warm.Warm != "hit" {
		t.Fatalf("Extend(0,0) should be a plain compatible copy: %v %v %q", err, warm.Status, warm.Warm)
	}
	if math.Abs(warm.Objective-sol.Objective) > 1e-9 {
		t.Fatalf("objective drift on Extend(0,0): %g vs %g", warm.Objective, sol.Objective)
	}
}

// TestExtendRandomizedCrossCheck fuzzes the growth path: random base LPs,
// random appended columns and LE rows, warm-extended solve vs a cold solve
// of the same grown model. Objectives must agree to 1e-7 on every instance
// (both are optimal vertices of the same LP).
func TestExtendRandomizedCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(4)
		nr := 1 + rng.Intn(4)
		m := NewModel("fuzz", Maximize)
		vars := make([]VarID, nv)
		for j := 0; j < nv; j++ {
			vars[j] = m.AddVar("v", 0, 2+rng.Float64()*3, rng.Float64()*5)
		}
		rows := make([]RowID, nr)
		for k := 0; k < nr; k++ {
			rows[k] = m.AddRow("r", LE, 1+rng.Float64()*6)
			for j := 0; j < nv; j++ {
				if rng.Float64() < 0.6 {
					m.AddTerm(rows[k], vars[j], 0.2+rng.Float64())
				}
			}
		}
		sol, err := m.SolveWith(Options{CaptureBasis: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: base solve %v status %v", trial, err, sol.Status)
		}

		addV := 1 + rng.Intn(3)
		addR := rng.Intn(2)
		for k := 0; k < addR; k++ {
			rows = append(rows, m.AddRow("rext", LE, 1+rng.Float64()*4))
		}
		for j := 0; j < addV; j++ {
			var rs []RowID
			var cs []float64
			for _, r := range rows {
				if rng.Float64() < 0.7 {
					rs = append(rs, r)
					cs = append(cs, 0.2+rng.Float64())
				}
			}
			if _, err := m.AddColumn("vext", 0, 1+rng.Float64()*3, rng.Float64()*8, rs, cs); err != nil {
				t.Fatalf("trial %d: AddColumn %v", trial, err)
			}
		}

		warm, err := m.SolveWith(Options{WarmStart: sol.Basis.Extend(addV, addR)})
		if err != nil || warm.Status != Optimal {
			t.Fatalf("trial %d: warm solve %v status %v", trial, err, warm.Status)
		}
		fresh := m.Clone()
		cold, err := fresh.Solve()
		if err != nil || cold.Status != Optimal {
			t.Fatalf("trial %d: cold solve %v status %v", trial, err, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-7 {
			t.Fatalf("trial %d: warm %.12g vs cold %.12g", trial, warm.Objective, cold.Objective)
		}
	}
}
