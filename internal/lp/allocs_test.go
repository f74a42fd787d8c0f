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

// TestRefactorizeAllocations pins the basis-kernel arena reuse: once a
// simplex has refactorized, doing it again allocates a constant number of
// objects (none today), not one slice per basis column.
func TestRefactorizeAllocations(t *testing.T) {
	for _, capRows := range []int{100, 400} {
		s := midSolveSimplex(t, 20, capRows)
		if err := s.refactorize(); err != nil { // AllocsPerRun's warm-up sizes the other of the two LU buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.refactorize(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("m=%d: a repeated refactorize allocates %v objects, want O(1)", s.m, allocs)
		}
	}
}

// TestAutoPricingSelection checks the size-based default and that an
// explicit rule always wins.
func TestAutoPricingSelection(t *testing.T) {
	small := Options{}.withDefaults(100, 200)
	if small.Pricing != Dantzig {
		t.Fatalf("small model: Auto resolved to %v, want Dantzig", small.Pricing)
	}
	mid := Options{}.withDefaults(autoPricingThreshold, autoPricingThreshold)
	if mid.Pricing != PartialDantzig {
		t.Fatalf("mid-size model: Auto resolved to %v, want PartialDantzig", mid.Pricing)
	}
	large := Options{}.withDefaults(autoDevexThreshold, autoDevexThreshold)
	if large.Pricing != Devex {
		t.Fatalf("large model: Auto resolved to %v, want Devex", large.Pricing)
	}
	forced := Options{Pricing: Bland}.withDefaults(autoPricingThreshold, autoPricingThreshold)
	if forced.Pricing != Bland {
		t.Fatalf("explicit Pricing overridden to %v", forced.Pricing)
	}
}
