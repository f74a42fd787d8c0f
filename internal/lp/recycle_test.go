package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drainFreeBufs empties the free list, so the next borrow allocates.
func drainFreeBufs() {
	freeBufs.Lock()
	freeBufs.sets = nil
	freeBufs.Unlock()
}

// sameSolution fails unless a and b agree on everything a caller reads of a
// solve — status, pivot counts, and X, Duals and Basis bit for bit.
func sameSolution(t *testing.T, name string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status || a.Iters != b.Iters || a.Phase1Iters != b.Phase1Iters {
		t.Fatalf("%s: %v after %d pivots (%d in phase 1), recycled %v after %d (%d)",
			name, a.Status, a.Iters, a.Phase1Iters, b.Status, b.Iters, b.Phase1Iters)
	}
	sameBits := func(what string, x, y []float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %d %s, recycled %d", name, len(x), what, len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %v, recycled %v", name, what, i, x[i], y[i])
			}
		}
	}
	sameBits("X", a.X, b.X)
	sameBits("Duals", a.Duals, b.Duals)
	if (a.Basis == nil) != (b.Basis == nil) {
		t.Fatalf("%s: basis captured %v, recycled %v", name, a.Basis != nil, b.Basis != nil)
	}
	if a.Basis == nil {
		return
	}
	x, y := a.Basis, b.Basis
	if x.nVars != y.nVars || x.nRows != y.nRows || x.nCols != y.nCols {
		t.Fatalf("%s: basis shapes differ", name)
	}
	for i := range x.basis {
		if x.basis[i] != y.basis[i] {
			t.Fatalf("%s: basis slot %d holds %d, recycled %d", name, i, x.basis[i], y.basis[i])
		}
	}
	for j := range x.state {
		if x.state[j] != y.state[j] {
			t.Fatalf("%s: column %d state %d, recycled %d", name, j, x.state[j], y.state[j])
		}
	}
	sameBits("artificial signs", x.art, y.art)
}

// TestRecycledMemoryIsInvisible pins that a solve cannot tell recycled
// working memory from new: over seeded LPs of the kinds the iteration tests
// use, each LP is solved on memory fresh from the allocator, then again with
// the free list holding the sets a much larger and a much smaller LP have
// just released — cold, warm-started from the cold basis after a
// perturbation, and through an Incremental chain of bound toggles that is
// released halfway and borrows anew. Every solution must match bit for bit.
func TestRecycledMemoryIsInvisible(t *testing.T) {
	larger := slicedPathLP(12, 30, 20, 4, 2, 4, 11)
	smaller := slicedPathLP(2, 3, 3, 2, 2, 3, 12)
	bigN, bigRows := larger.shape()
	fresh := func() { drainFreeBufs() }
	recycled := func() {
		drainFreeBufs()
		// The larger LP's chain holds its set while the smaller LP solves, so
		// the two solves leave two sets.
		inc := NewIncremental(larger, Options{})
		if _, err := inc.Solve(); err != nil {
			t.Fatal(err)
		}
		if _, err := smaller.Solve(); err != nil {
			t.Fatal(err)
		}
		inc.Release()
		if len(freeBufs.sets) != 2 {
			t.Fatalf("the free list holds %d sets, want the 2 just released", len(freeBufs.sets))
		}
	}
	kinds := []struct {
		name string
		gen  func(rng *rand.Rand, trial int) *Model
	}{
		{"ret_shaped", retShapedLP},
		{"colgen_shaped", colgenShapedLP},
		{"mixed_rows", func(rng *rand.Rand, _ int) *Model { return mixedRowsLP(rng) }},
		{"degenerate", func(rng *rand.Rand, _ int) *Model { return degenerateLP(rng) }},
		{"infeasible", func(rng *rand.Rand, _ int) *Model { return infeasibleLP(rng) }},
		{"slack_run", func(rng *rand.Rand, _ int) *Model { return slackRunLP(rng) }},
	}
	solves := 0
	for ki, kind := range kinds {
		for trial := 0; trial < 12; trial++ {
			seed := int64(1000*ki + trial)
			opt := iterationOptions(trial)
			opt.ArtificialCrash = trial%2 == 0
			opt.CaptureBasis = true
			name := fmt.Sprintf("%s/%d", kind.name, trial)

			// run solves the LP every way and returns what each solve
			// returned, calling prep before each borrow.
			run := func(prep func()) []*Solution {
				model := kind.gen(rand.New(rand.NewSource(seed)), trial)
				if n, rows := model.shape(); n+rows > bigN+bigRows || rows > bigRows {
					t.Fatalf("%s: %d columns, %d rows do not fit the larger LP's set", name, n, rows)
				}
				rng := rand.New(rand.NewSource(seed + 1))
				var out []*Solution
				solve := func(sol *Solution, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out = append(out, sol)
				}
				prep()
				cold, err := model.SolveWith(opt)
				solve(cold, err)
				if cold.Basis != nil {
					warmed := model.Clone()
					perturbModel(rng, warmed)
					wopt := opt
					wopt.WarmStart = cold.Basis
					prep()
					solve(warmed.SolveWith(wopt))
				}
				prep()
				inc := NewIncremental(model, opt)
				for round := 0; round < 4; round++ {
					if round == 2 {
						inc.Release()
						prep()
					}
					solve(inc.Solve())
					toggleBounds(rng, model)
				}
				inc.Release()
				return out
			}
			want, got := run(fresh), run(recycled)
			for i := range want {
				sameSolution(t, fmt.Sprintf("%s solve %d", name, i), want[i], got[i])
			}
			solves += len(want)
		}
	}
	t.Logf("%d solves matched", solves)
}

// TestFreeListBound pins the free list's policy: it hands out the smallest
// set that fits, holds at most maxFreeBufs sets, and when full keeps the
// largest.
func TestFreeListBound(t *testing.T) {
	drainFreeBufs()
	defer drainFreeBufs()
	set := func(t int) *solverBufs {
		bf := new(solverBufs)
		bf.reshape(t, 1)
		return bf
	}
	limit := maxFreeBufs()
	for i := 0; i < limit+3; i++ {
		releaseBufs(set(100 * (i + 1)))
	}
	if len(freeBufs.sets) != limit {
		t.Fatalf("the free list holds %d sets, want %d", len(freeBufs.sets), limit)
	}
	for _, bf := range freeBufs.sets {
		if bf.size() < set(100*4).size() {
			t.Fatalf("a full free list kept a set of size %d over larger ones", bf.size())
		}
	}
	if bf := borrowBufs(600, 1); bf.size() != set(600).size() {
		t.Fatalf("borrowed a set of size %d for 600 columns, want the smallest that fits (%d)", bf.size(), set(600).size())
	}
	if bf := borrowBufs(1e6, 1); bf.size() != 0 {
		t.Fatalf("borrowed a set of size %d for a solve no set fits, want a new one", bf.size())
	}
}
