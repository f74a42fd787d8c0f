package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomBoundedModel draws a small random LP with general bounds — some
// variables fixed, some free above — so warm starts see the full bound
// repertoire.
func randomBoundedModel(rng *rand.Rand) *Model {
	n := 2 + rng.Intn(6)
	nr := 1 + rng.Intn(6)
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	m := NewModel("warm", sense)
	vars := make([]VarID, n)
	for j := 0; j < n; j++ {
		lb := float64(rng.Intn(5) - 2)
		var ub float64
		switch rng.Intn(4) {
		case 0:
			ub = Inf
		case 1:
			ub = lb // fixed
		default:
			ub = lb + float64(1+rng.Intn(8))
		}
		vars[j] = m.AddVar("x", lb, ub, float64(rng.Intn(11)-5))
	}
	for i := 0; i < nr; i++ {
		var op RelOp
		switch rng.Intn(4) {
		case 0:
			op = GE
		case 1:
			op = EQ
		default:
			op = LE
		}
		r := m.AddRow("r", op, float64(rng.Intn(13)-4))
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				m.AddTerm(r, vars[j], float64(rng.Intn(7)-3))
			}
		}
	}
	return m
}

// perturb applies a random mix of RHS, bound, and objective mutations —
// exactly the changes a warm start claims to absorb.
func perturb(rng *rand.Rand, m *Model) {
	for j := 0; j < m.NumVars(); j++ {
		if rng.Float64() < 0.3 {
			lb, ub := m.Bounds(VarID(j))
			lb += float64(rng.Intn(3) - 1)
			if !math.IsInf(ub, 1) {
				ub += float64(rng.Intn(3) - 1)
			}
			if ub < lb {
				lb, ub = ub, lb
			}
			m.SetBounds(VarID(j), lb, ub)
		}
		if rng.Float64() < 0.2 {
			m.SetObj(VarID(j), float64(rng.Intn(11)-5))
		}
	}
	for i := 0; i < m.NumRows(); i++ {
		if rng.Float64() < 0.3 {
			m.setRHS(RowID(i), m.RHS(RowID(i))+float64(rng.Intn(5)-2))
		}
	}
}

// agree fails the test unless the warm and cold solutions have the same
// status and (when optimal) objectives within 1e-9 relative tolerance.
func agree(t *testing.T, trial int, cold, warm *Solution) {
	t.Helper()
	if cold.Status != warm.Status {
		t.Fatalf("trial %d: status cold=%v warm=%v", trial, cold.Status, warm.Status)
	}
	if cold.Status != Optimal {
		return
	}
	scale := 1 + math.Abs(cold.Objective)
	if diff := math.Abs(cold.Objective - warm.Objective); diff > 1e-9*scale {
		t.Fatalf("trial %d: objective cold=%.12g warm=%.12g (diff %g)",
			trial, cold.Objective, warm.Objective, diff)
	}
}

// TestWarmStartMatchesCold is the core property test: across hundreds of
// random models and random RHS/bound/objective perturbations, a
// warm-started solve must report the same status and objective as a cold
// solve of the identical model.
func TestWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 400
	if testing.Short() {
		n = 80
	}
	for trial := 0; trial < n; trial++ {
		m := randomBoundedModel(rng)
		base, err := m.SolveWith(Options{CaptureBasis: true})
		if err != nil && base == nil {
			t.Fatalf("trial %d: base solve: %v", trial, err)
		}
		if base.Status != Optimal && base.Status != Infeasible {
			continue // unbounded etc: no basis to chain
		}
		if base.Basis == nil {
			t.Fatalf("trial %d: CaptureBasis returned nil basis (status %v)", trial, base.Status)
		}
		// Chain several perturbations, warm-starting each from the
		// previous solve's basis like the schedule-layer loops do.
		basis := base.Basis
		for step := 0; step < 3; step++ {
			perturb(rng, m)
			cold, cerr := m.SolveWith(Options{})
			warm, werr := m.SolveWith(Options{WarmStart: basis})
			if (cerr == nil) != (werr == nil) {
				t.Fatalf("trial %d step %d: error cold=%v warm=%v", trial, step, cerr, werr)
			}
			if cerr != nil {
				break
			}
			agree(t, trial, cold, warm)
			if warm.Basis != nil {
				basis = warm.Basis
			}
		}
	}
}

// TestWarmStartStructuralMismatch feeds a basis from a different-shaped
// model: the solve must fall back to the cold path and still be correct.
func TestWarmStartStructuralMismatch(t *testing.T) {
	small := NewModel("small", Minimize)
	x := small.AddVar("x", 0, 10, 1)
	r := small.AddRow("r", GE, 2)
	small.AddTerm(r, x, 1)
	ssol, err := small.SolveWith(Options{CaptureBasis: true})
	if err != nil || ssol.Status != Optimal || ssol.Basis == nil {
		t.Fatalf("small solve: %v %+v", err, ssol)
	}

	big := NewModel("big", Maximize)
	a := big.AddVar("a", 0, 4, 3)
	b := big.AddVar("b", 0, 4, 2)
	rb := big.AddRow("cap", LE, 5)
	big.AddTerm(rb, a, 1)
	big.AddTerm(rb, b, 1)

	before := telWarmFallbacks.Value()
	bsol, err := big.SolveWith(Options{WarmStart: ssol.Basis})
	if err != nil {
		t.Fatalf("big solve: %v", err)
	}
	if bsol.Status != Optimal || math.Abs(bsol.Objective-14) > 1e-9 {
		t.Fatalf("fallback solve wrong: %+v (want objective 14)", bsol)
	}
	if telWarmFallbacks.Value() != before+1 {
		t.Fatalf("expected a warm-start fallback to be counted")
	}
}

// TestWarmStartHitCounted confirms the happy path increments the hit
// counter and skips phase 1 entirely (far fewer pivots than cold).
func TestWarmStartHitCounted(t *testing.T) {
	m := NewModel("hit", Maximize)
	n := 12
	vars := make([]VarID, n)
	for j := 0; j < n; j++ {
		vars[j] = m.AddVar("x", 0, 3, float64(1+j%4))
	}
	for i := 0; i < 6; i++ {
		r := m.AddRow("r", LE, float64(6+i))
		for j := 0; j < n; j++ {
			if (i+j)%3 == 0 {
				m.AddTerm(r, vars[j], 1)
			}
		}
	}
	base, err := m.SolveWith(Options{CaptureBasis: true})
	if err != nil || base.Status != Optimal {
		t.Fatalf("base: %v %+v", err, base)
	}
	m.setRHS(RowID(0), 4)
	hits := telWarmHits.Value()
	warm, err := m.SolveWith(Options{WarmStart: base.Basis})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm: %v %+v", err, warm)
	}
	if telWarmHits.Value() != hits+1 {
		t.Fatalf("expected a warm-start hit to be counted")
	}
	cold, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	agree(t, 0, cold, warm)
	if warm.Iters >= cold.Iters && cold.Iters > 0 {
		t.Logf("warm iters %d not below cold %d (allowed, but unexpected on this model)",
			warm.Iters, cold.Iters)
	}
}

// FuzzWarmStartEquivalence drives the warm-vs-cold property from fuzzed
// seeds so the corpus can grow adversarial perturbation sequences.
func FuzzWarmStartEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-9000))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := randomBoundedModel(rng)
		base, err := m.SolveWith(Options{CaptureBasis: true})
		if err != nil || base == nil || base.Basis == nil {
			return
		}
		perturb(rng, m)
		cold, cerr := m.SolveWith(Options{})
		warm, werr := m.SolveWith(Options{WarmStart: base.Basis})
		if cerr != nil || werr != nil {
			return
		}
		agree(t, 0, cold, warm)
	})
}
