package lp

import (
	"testing"
)

// BenchmarkSolveAllocs is the allocs/op guard for the warm probe hot path:
// repeated solves of one model after a bound mutation, warm-started from
// the previous basis. The per-model buffer cache should keep the simplex
// working arrays out of the per-solve allocation count — watch allocs/op
// when touching assemble or the warm path.
func BenchmarkSolveAllocs(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		model := randomDenseLP(200, 120, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := model.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		model := randomDenseLP(200, 120, 1)
		sol, err := model.SolveWith(Options{CaptureBasis: true})
		if err != nil || sol.Status != Optimal {
			b.Fatalf("seed solve: %v (%v)", err, sol.Status)
		}
		basis := sol.Basis
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Flip one bound a little so the dual pass has work to do,
			// mirroring the RET probe's bound-flip pattern.
			lb, ub := model.Bounds(0)
			model.SetBounds(0, lb, ub+float64(i%2))
			sol, err := model.SolveWith(Options{WarmStart: basis})
			if err != nil {
				b.Fatal(err)
			}
			if sol.Basis != nil {
				basis = sol.Basis
			}
		}
	})
}

// TestRepeatSolveAllocations pins the buffer-cache behavior: re-solving a
// model allocates strictly less than the first solve of a fresh model,
// because the simplex working arrays are reused.
func TestRepeatSolveAllocations(t *testing.T) {
	fresh := testing.AllocsPerRun(1, func() {
		model := randomDenseLP(120, 80, 7)
		if _, err := model.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	model := randomDenseLP(120, 80, 7)
	if _, err := model.Solve(); err != nil {
		t.Fatal(err)
	}
	repeat := testing.AllocsPerRun(5, func() {
		if _, err := model.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if repeat >= fresh {
		t.Fatalf("repeated solve allocates %v objects, fresh solve %v — buffer cache not engaged", repeat, fresh)
	}
}

// TestRepeatColdSolveAllocations pins what a cold solve of an already-solved
// model allocates: the solver state and what the caller keeps (Solution, X,
// Duals), a handful of objects whatever the model's size — not the
// assembled matrix, its row index, the crash residual, the pricing cache or
// any other working array, all of which live on the model's buffer cache.
func TestRepeatColdSolveAllocations(t *testing.T) {
	for _, model := range []*Model{
		slicedPathLP(4, 10, 4, 2, 2, 4, 3),
		slicedPathLP(8, 20, 10, 3, 2, 4, 3),
	} {
		opt := Options{Pricing: PartialDantzig}
		if sol, err := model.SolveWith(opt); err != nil || sol.Status != Optimal {
			t.Fatalf("first solve: status %v, err %v", sol.Status, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := model.SolveWith(opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Fatalf("%d rows: a repeated cold solve allocates %v objects, want at most 6", model.NumRows(), allocs)
		}
	}
}

// TestIncrementalFullSolveAllocations pins the same for an Incremental that
// has to start over (a structure change, a stalled or over-budget re-entry —
// most RET probes): the state it abandons hands its buffers to the next.
func TestIncrementalFullSolveAllocations(t *testing.T) {
	model := slicedPathLP(8, 20, 10, 3, 2, 4, 3)
	inc := NewIncremental(model, Options{Pricing: PartialDantzig})
	if sol, err := inc.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("first solve: status %v, err %v", sol.Status, err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		inc.valid = false
		if sol, err := inc.Solve(); err != nil || sol.Status != Optimal {
			t.Fatalf("status %v, err %v", sol.Status, err)
		}
	})
	if allocs > 6 {
		t.Fatalf("a repeated full solve of an Incremental allocates %v objects, want at most 6", allocs)
	}
}

// TestRefactorizeAllocations pins the basis-kernel arena reuse: once a
// simplex has refactorized, doing it again allocates nothing — not one
// slice per basis column, and no row-cover scratch either — whether it has
// to factorize (the basis matrix changed) or keeps the factors.
func TestRefactorizeAllocations(t *testing.T) {
	for _, capRows := range []int{100, 400} {
		s := midSolveSimplex(t, 20, capRows)
		s.luCurrent = false
		if err := s.refactorize(); err != nil { // AllocsPerRun's warm-up sizes the other of the two LU buffers
			t.Fatal(err)
		}
		for _, reused := range []bool{false, true} {
			allocs := testing.AllocsPerRun(5, func() {
				s.luCurrent, s.onlySwaps = reused, false
				if err := s.refactorize(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("m=%d, factors kept %v: a repeated refactorize allocates %v objects, want none", s.m, reused, allocs)
			}
		}
	}
}

// TestAutoPricingSelection checks that the zero value is PartialDantzig at
// every model size and that an explicit rule is kept.
func TestAutoPricingSelection(t *testing.T) {
	for _, size := range []int{10, 2048, 40000} {
		if got := (Options{}).withDefaults(size/2, size-size/2).Pricing; got != PartialDantzig {
			t.Fatalf("zero Options at %d rows+columns: pricing %v, want PartialDantzig", size, got)
		}
	}
	for _, rule := range []Pricing{Dantzig, Bland} {
		if got := (Options{Pricing: rule}).withDefaults(20000, 20000).Pricing; got != rule {
			t.Fatalf("explicit Pricing %v overridden to %v", rule, got)
		}
	}
}
