package lp

import (
	"testing"
)

// BenchmarkSolveAllocs is the allocs/op guard for solver memory: "cold"
// re-solves one model, "warm" re-solves it warm-started from the previous
// basis after a bound mutation (the RET probe's pattern), and "distinct"
// solves a new model of the same shape every iteration (an epoch's models:
// built, solved once, dropped), its build outside the timer and the count.
// The working arrays come from the package free list in all three, so each
// allocates what the caller keeps and no more — watch allocs/op when
// touching assemble, the warm path or the free list.
func BenchmarkSolveAllocs(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		model := randomDenseLP(200, 120, 1)
		if _, err := model.Solve(); err != nil {
			b.Fatal(err)
		}
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
	b.Run("distinct", func(b *testing.B) {
		if _, err := randomDenseLP(200, 120, 0).Solve(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			model := randomDenseLP(200, 120, int64(i+1))
			b.StartTimer()
			if _, err := model.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// solveAllocs returns what one solve of each model in turn allocates, on
// average; models holds one model per run of testing.AllocsPerRun (its
// warm-up included), so that each run solves a model never solved before.
func solveAllocs(t *testing.T, models []*Model, opt Options) float64 {
	t.Helper()
	i := 0
	return testing.AllocsPerRun(len(models)-1, func() {
		sol, err := models[i].SolveWith(opt)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("model %d: status %v, err %v", i, sol.Status, err)
		}
		i++
	})
}

// TestRepeatSolveAllocations pins who owns solver memory: the free list,
// not the model. Once one model has been solved, the first solve of a fresh
// model no larger allocates only what the caller keeps — the Solution, X and
// Duals, and with CaptureBasis the Basis and its three arrays — because the
// working arrays, the assembled matrix, the factors and the solver state are
// borrowed from the set the earlier solve released.
func TestRepeatSolveAllocations(t *testing.T) {
	if _, err := randomDenseLP(120, 80, 7).Solve(); err != nil {
		t.Fatal(err)
	}
	fresh := func() []*Model {
		models := make([]*Model, 6)
		for i := range models {
			models[i] = randomDenseLP(100+i, 60+i, int64(8+i))
		}
		return models
	}
	if allocs := solveAllocs(t, fresh(), Options{}); allocs > 3 {
		t.Fatalf("the first solve of a fresh model allocates %v objects, want at most 3 (Solution, X, Duals)", allocs)
	}
	if allocs := solveAllocs(t, fresh(), Options{CaptureBasis: true}); allocs > 7 {
		t.Fatalf("the first solve of a fresh model with CaptureBasis allocates %v objects, want at most 7 (Solution, X, Duals, Basis)", allocs)
	}
}

// TestRepeatColdSolveAllocations pins the same at the scheduler's shape, for a
// cold solve of an already-solved model and of a fresh one built alike: the
// Solution, X and Duals, whatever the model's size — not the assembled
// matrix, its row index, the crash residual, the pricing cache, the solver
// state or any other working array.
func TestRepeatColdSolveAllocations(t *testing.T) {
	for _, build := range []func() *Model{
		func() *Model { return slicedPathLP(4, 10, 4, 2, 2, 4, 3) },
		func() *Model { return slicedPathLP(8, 20, 10, 3, 2, 4, 3) },
	} {
		opt := Options{Pricing: PartialDantzig}
		model := build()
		if sol, err := model.SolveWith(opt); err != nil || sol.Status != Optimal {
			t.Fatalf("first solve: status %v, err %v", sol.Status, err)
		}
		same, fresh := make([]*Model, 6), make([]*Model, 6)
		for i := range same {
			same[i], fresh[i] = model, build()
		}
		if allocs := solveAllocs(t, same, opt); allocs > 3 {
			t.Fatalf("%d rows: a repeated cold solve allocates %v objects, want at most 3", model.NumRows(), allocs)
		}
		if allocs := solveAllocs(t, fresh, opt); allocs > 3 {
			t.Fatalf("%d rows: the cold solve of a fresh model allocates %v objects, want at most 3", model.NumRows(), allocs)
		}
	}
}

// TestIncrementalFullSolveAllocations pins the same for an Incremental that
// has to start over (a structure change, a stalled or over-budget re-entry —
// most RET probes): it does so on the memory it holds.
func TestIncrementalFullSolveAllocations(t *testing.T) {
	model := slicedPathLP(8, 20, 10, 3, 2, 4, 3)
	inc := NewIncremental(model, Options{Pricing: PartialDantzig})
	defer inc.Release()
	if sol, err := inc.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("first solve: status %v, err %v", sol.Status, err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		inc.s = nil
		if sol, err := inc.Solve(); err != nil || sol.Status != Optimal {
			t.Fatalf("status %v, err %v", sol.Status, err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a repeated full solve of an Incremental allocates %v objects, want at most 3", allocs)
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
