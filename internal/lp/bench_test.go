package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// randomDenseLP builds a feasible bounded LP with n variables and m rows.
func randomDenseLP(n, m int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	model := NewModel("bench", Maximize)
	vars := make([]VarID, n)
	for j := range vars {
		vars[j] = model.AddVar("x", 0, float64(1+rng.Intn(9)), rng.Float64()*10-2)
	}
	for i := 0; i < m; i++ {
		r := model.AddRow("r", LE, float64(5+rng.Intn(50)))
		for j := range vars {
			if rng.Float64() < 0.3 {
				model.AddTerm(r, vars[j], rng.Float64()*4)
			}
		}
	}
	return model
}

// pathFlowLP builds a stage-1-shaped LP: maximize Z subject to one EQ row
// per job (Σ x − D·Z = 0) and LE capacity rows that each path variable
// loads a few of. Its bases are what the scheduler's are: mostly unit slack
// and artificial columns, the rest short 0/1 path columns.
func pathFlowLP(jobs, capRows, varsPerJob int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	model := NewModel("pathflow", Maximize)
	z := model.AddVar("Z", 0, Inf, 1)
	caps := make([]RowID, capRows)
	for i := range caps {
		caps[i] = model.AddRow("cap", LE, float64(2+rng.Intn(4)))
	}
	for k := 0; k < jobs; k++ {
		r := model.AddRow("job", EQ, 0)
		model.AddTerm(r, z, -float64(1+rng.Intn(8)))
		for p := 0; p < varsPerJob; p++ {
			x := model.AddVar("x", 0, Inf, 0)
			model.AddTerm(r, x, 1)
			for _, c := range rng.Perm(capRows)[:2+rng.Intn(4)] {
				model.AddTerm(caps[c], x, 1)
			}
		}
	}
	return model
}

// slicedPathLP builds a stage-1 LP with the scheduler's time structure:
// maximize Z subject to one EQ row per job (Σ x − D·Z = 0) and one LE
// capacity row per (edge, slice); job k has a window of slices and a few
// paths of minHops..maxHops edges, and variable x[k,p,t] loads its path's
// edges in slice t only. Unlike pathFlowLP's unstructured rows this keeps
// the basis factors as sparse as the daemon's, at any size: capacity rows
// couple only within a slice, and the slices only through the job rows.
func slicedPathLP(jobs, edges, slices, pathsPerJob, minHops, maxHops int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	model := NewModel("slicedpath", Maximize)
	z := model.AddVar("Z", 0, Inf, 1)
	caps := make([]RowID, edges*slices)
	for i := range caps {
		caps[i] = model.AddRow("cap", LE, float64(2+rng.Intn(4)))
	}
	for k := 0; k < jobs; k++ {
		r := model.AddRow("job", EQ, 0)
		model.AddTerm(r, z, -float64(1+rng.Intn(8)))
		from := rng.Intn(slices - 1)
		to := from + 2 + rng.Intn(slices-from-1) // window [from, to), at least two slices
		for p := 0; p < pathsPerJob; p++ {
			path := rng.Perm(edges)[:minHops+rng.Intn(maxHops-minHops+1)]
			for t := from; t < to; t++ {
				x := model.AddVar("x", 0, Inf, 0)
				model.AddTerm(r, x, 1)
				for _, e := range path {
					model.AddTerm(caps[e*slices+t], x, 1)
				}
			}
		}
	}
	return model
}

// midSolveSimplex returns the solver state of pathFlowLP(jobs, capRows, …)
// after rows/2 cold pivots: about half the artificial crash basis has been
// swapped for slack and path columns, and refactorize has already run
// several times, so its arenas are at size.
func midSolveSimplex(tb testing.TB, jobs, capRows int) *simplex {
	tb.Helper()
	model := pathFlowLP(jobs, capRows, 40, 5)
	s := model.assemble(Options{MaxIter: (jobs + capRows) / 2})
	if _, sol, err := model.coldSolve(s, s.opt); err != nil || sol.Status != IterLimit {
		tb.Fatalf("cold solve: status %v, err %v; want it cut short by the pivot limit", sol.Status, err)
	}
	return s
}

// BenchmarkRefactorize times one refactorization of an m ≈ 1200 slack-heavy
// basis, the size and shape of the daemon benchmark's steady-enum stage-1
// basis: "full" after a pivot that changed the basis matrix (LU, recomputeXB
// and the row-cover recount), "reused" after pivots that did not (the factors
// stay; xB is still recomputed, as after a swap that was not isolated).
// allocs/op is the arena-reuse guard.
func BenchmarkRefactorize(b *testing.B) {
	for _, reused := range []bool{false, true} {
		name := "full"
		if reused {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) {
			s := midSolveSimplex(b, 60, 1150)
			for warm := 0; warm < 2; warm++ { // size both LU buffers
				s.luCurrent = false
				if err := s.refactorize(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.luCurrent, s.onlySwaps = reused, false
				if err := s.refactorize(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(s.factor.lu.lent)+len(s.factor.lu.uent)), "lu_offdiag_nnz")
		})
	}
}

// BenchmarkPrimalIteration times the primal pivot loop (price + step) per
// pivot on the two shapes the iteration kernels' cut-overs sit between, under
// the pricing rule `serve` runs: "ret" is slack-heavy at m ≈ 1000, where
// nearly every FTRAN result is a unit vector and most pivots swap an
// artificial for its row's slack (hypersparse FTRAN, elided BTRAN and cached
// reduced costs all engage); "colgen" is a small master of long paths, whose
// entering columns fill in and whose duals move broadly (the dense loops and
// whole-cache invalidation take over); "slack-run" is a few jobs in the corner
// of a wide (edge, slice) grid, a RET probe at a small b, whose cold solve is
// nearly all phase 1 swapping the artificial of an idle capacity row for its
// slack (block summaries answer the window scan, and refactorizations find
// the basis matrix as they left it). Each iteration is one cold solve of the
// same model, so allocs/op is also the repeated-cold-solve guard.
func BenchmarkPrimalIteration(b *testing.B) {
	for _, tc := range []struct {
		name  string
		model *Model
	}{
		{"ret", slicedPathLP(12, 60, 18, 4, 3, 6, 5)},
		{"colgen", slicedPathLP(15, 60, 6, 8, 6, 12, 6)},
		{"slack-run", slicedPathLP(3, 90, 14, 2, 2, 4, 7)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opt := Options{Pricing: PartialDantzig}
			if _, err := tc.model.SolveWith(opt); err != nil { // size the buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			pivots, fastest := 0, math.Inf(1)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				sol, err := tc.model.SolveWith(opt)
				if err != nil || sol.Status != Optimal {
					b.Fatalf("status %v, err %v", sol.Status, err)
				}
				if d := float64(time.Since(start).Nanoseconds()) / float64(sol.Iters); d < fastest {
					fastest = d
				}
				pivots += sol.Iters
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
			// The mean moves ±20 % with the host's other tenants; the fastest
			// solve is the figure to compare two kernels by.
			b.ReportMetric(fastest, "min-ns/pivot")
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		})
	}
}

func BenchmarkSimplexSolve(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{50, 30}, {200, 120}, {800, 500}} {
		b.Run(fmt.Sprintf("n%d_m%d", sz.n, sz.m), func(b *testing.B) {
			model := randomDenseLP(sz.n, sz.m, 1)
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				sol, err := model.Solve()
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != Optimal {
					b.Fatalf("status %v", sol.Status)
				}
				iters = sol.Iters
			}
			b.ReportMetric(float64(iters), "simplex_iters")
		})
	}
}

func BenchmarkLUFactorize(b *testing.B) {
	for _, m := range []int{50, 200, 600} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			a := make([][]float64, m)
			for i := range a {
				a[i] = make([]float64, m)
				for j := range a[i] {
					if rng.Float64() < 0.05 {
						a[i][j] = rng.NormFloat64()
					}
				}
				a[i][i] += float64(m)
			}
			rows, vals := denseToCols(m, a)
			col := func(j int) ([]int, []float64) { return rows[j], vals[j] }
			f := new(luFactors) // refilled in place, as refactorize does
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.factorize(m, col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFTRAN(b *testing.B) {
	m := 400
	rng := rand.New(rand.NewSource(4))
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			if rng.Float64() < 0.05 {
				a[i][j] = rng.NormFloat64()
			}
		}
		a[i][i] += float64(m)
	}
	rows, vals := denseToCols(m, a)
	f, err := luFactorize(m, rows, vals)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	buf := make([]float64, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, v)
		f.solve(buf)
	}
}
