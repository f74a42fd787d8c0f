package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/workload"
)

// lexCase is one seeded stage-2 LP of the invariance property: an instance
// with its pool, the Z* that sets the floor and the objective weights.
type lexCase struct {
	seed   int64
	inst   *Instance
	zstar  float64
	weight WeightFunc
}

const lexAlpha = 0.1

// lexCases builds the seeded instances: alternately an enumeration-shaped
// pool (Yen, K = 3) and a colgen-shaped one (seeds grown by GeneratePaths),
// lightly and heavily loaded, under size weights, uniform weights and three
// priority classes.
func lexCases(t *testing.T, n int) []lexCase {
	t.Helper()
	var out []lexCase
	for seed := int64(1); seed <= int64(n); seed++ {
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 9, LinkPairs: 15, Wavelengths: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		load := 0.04
		if seed%4 >= 2 {
			load = 0.25 // overloaded
		}
		jobs, err := workload.Generate(g, workload.Config{
			Jobs: 4 + int(seed%3), Seed: seed + 500, GBToDemand: load, MinWindow: 2, MaxWindow: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := InstanceOptions{K: 3}
		if seed%2 == 1 {
			opts = InstanceOptions{ColumnGen: true}
		}
		inst, err := NewInstanceOpts(g, mustGrid(t, 5), jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := lexCase{seed: seed, inst: inst}
		switch seed % 3 {
		case 1:
			classes := map[job.ID]float64{}
			for _, jb := range jobs {
				classes[jb.ID] = []float64{0.1, 1, 8}[int(jb.ID)%3]
			}
			c.weight = WeightByImportance(classes)
		case 2:
			c.weight = WeightUniform
		}
		if opts.ColumnGen {
			if _, err := GeneratePaths(inst, ColGenConfig{Solver: solverOpts(), Weight: c.weight}); err != nil {
				t.Fatal(err)
			}
		}
		s1, err := SolveStage1(inst, solverOpts())
		if err != nil {
			t.Fatal(err)
		}
		c.zstar = s1.ZStar
		out = append(out, c)
	}
	return out
}

// permuted returns a copy of the instance with its jobs in the given order
// and every job's path list its own.
func permuted(inst *Instance, perm []int) *Instance {
	out := *inst
	out.Jobs, out.JobPaths, out.windows = nil, nil, nil
	out.forgetDerived()
	for _, k := range perm {
		out.Jobs = append(out.Jobs, inst.Jobs[k])
		out.JobPaths = append(out.JobPaths, append([]paths.Path(nil), inst.JobPaths[k]...))
		out.windows = append(out.windows, inst.windows[k])
	}
	return &out
}

// lexStart is how a solve of the property test starts.
type lexStart int

const (
	lexCold  lexStart = iota
	lexStale          // warm from the optimal basis of the same model without the fairness floor
	lexChain          // the colgen way: first paths only, the rest appended rank by rank through Basis.Extend
	numLexStarts
)

// lexSolve builds the case's stage-2 LP over inst (the case's instance or a
// permutation of it) — closed, without its dominated capacity rows, or with
// every row — and solves it twice from the same start under the same
// options, without the secondary objective and with it. The returned
// assignments (the plain solve's, the lexicographic solve's) are shaped for
// inst; restored is how many rows a lexChain start's closed master gave back
// as it grew.
func lexSolve(t *testing.T, c lexCase, inst *Instance, opts lp.Options, start lexStart, closed bool) (plain, lex *lp.Solution, plainFrac, frac *Assignment, restored int) {
	t.Helper()
	solve := func(m *lp.Model, o lp.Options) *lp.Solution {
		t.Helper()
		sol, err := m.SolveWith(o)
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		return sol
	}
	opts.CaptureBasis = true
	build := inst
	if start == lexChain {
		build = permuted(inst, identityPerm(inst.NumJobs()))
		for k := range build.JobPaths {
			build.JobPaths[k] = build.JobPaths[k][:1:1]
		}
	}
	var cells *capCells
	if closed {
		cells = newCapCells(build)
	}
	m, zvars, xv, capRows, err := buildStage2Model(build, c.zstar, lexAlpha, c.weight, cells)
	if err != nil {
		t.Fatal(err)
	}
	switch start {
	case lexStale:
		floor, _ := m.Bounds(zvars[0])
		for _, zv := range zvars {
			m.SetBounds(zv, 0, lp.Inf)
		}
		opts.WarmStart = solve(m, opts).Basis
		for _, zv := range zvars {
			m.SetBounds(zv, floor, lp.Inf)
		}
	case lexChain:
		if !closed {
			cells = everyRowCells(build, capRows, build.NumJobs())
		}
		ms := &cgMaster{inst: build, m: m, xv: xv, cells: cells, every: !closed}
		link := solve(m, opts)
		for rank := 1; ; rank++ {
			nv, nr := 0, 0
			for k := range inst.JobPaths {
				if rank < len(inst.JobPaths[k]) {
					a, b, err := ms.appendPath(k, inst.JobPaths[k][rank])
					if err != nil {
						t.Fatal(err)
					}
					nv, nr = nv+a, nr+b
				}
			}
			if nv == 0 {
				break
			}
			o := opts
			o.WarmStart = link.Basis.Extend(nv, nr)
			link = solve(m, o)
		}
		opts.WarmStart, xv, restored = link.Basis, ms.xv, cells.restored
	}
	plain = solve(m, opts)
	opts.Secondary = stage2Secondary(build, m, xv)
	lex = solve(m, opts)
	if plain.Status != lp.Optimal || lex.Status != lp.Optimal {
		t.Fatalf("seed %d: plain solve %v, lexicographic solve %v", c.seed, plain.Status, lex.Status)
	}
	return plain, lex, extractAssignment(build, xv, plain), extractAssignment(build, xv, lex), restored
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	return perm
}

// TestStage2LexInvariance is the property that lets a plan be read from
// whichever solve has it (DESIGN §10, determinism rule): with the secondary
// objective of stage2Secondary the stage-2 LP has one answer. Over seeded
// stage-2 LPs from buildStage2Model it solves each under every pricing rule
// × RefactorEvery ∈ {1, 7, 64} × {cold, warm from a stale basis, warm through
// a Basis.Extend chain} × {job order as built, shuffled} × {slack start,
// lp.Options.ArtificialCrash} × {dominated capacity rows dropped, every row}
// — the chain appends the columns through a master's appendPath, so its
// closed arm is the one production runs, rows given back as paths arrive —
// default tolerances, and requires the plan of the
// shipped configuration's cold solve: every x_i(p, j) within 1e-7,
// Truncate() equal cell for cell, the primary objective within 1e-9 of the
// same solve without the secondary objective and the duals that solve
// reports, bit for bit. Under the race detector each case takes every
// eleventh cell of the matrix (a stride coprime to every axis), a different
// eleventh per case.
func TestStage2LexInvariance(t *testing.T) {
	cases := lexCases(t, 54)
	overloaded, plainDiffer, solved, cell, rowsDropped, rowsRestored := 0, 0, 0, 0, 0, 0
	for _, c := range cases {
		if c.zstar <= 1 {
			overloaded++
		}
		rowsDropped += c.inst.closedCells().dropped
		_, _, wantPlain, want, _ := lexSolve(t, c, c.inst, partialDantzigOpts(), lexCold, true)
		wantLPD := want.Truncate()
		rng := rand.New(rand.NewSource(c.seed))
		check := func(opts lp.Options, start lexStart, perm []int, closed bool) {
			if cell++; raceEnabled && (cell+int(c.seed))%11 != 0 {
				return
			}
			solved++
			name := fmt.Sprintf("seed %d %v/%d start %d artificial crash %v closed %v order %v",
				c.seed, opts.Pricing, opts.RefactorEvery, start, opts.ArtificialCrash, closed, perm)
			plain, lex, gotPlain, got, restored := lexSolve(t, c, permuted(c.inst, perm), opts, start, closed)
			rowsRestored += restored
			if d := math.Abs(lex.Objective - plain.Objective); d > 1e-9 {
				t.Errorf("%s: primary objective %.12g, plain solve %.12g", name, lex.Objective, plain.Objective)
			}
			for r := range plain.Duals {
				if math.Float64bits(lex.Duals[r]) != math.Float64bits(plain.Duals[r]) {
					t.Errorf("%s: dual of row %d is %v, plain solve %v", name, r, lex.Duals[r], plain.Duals[r])
					break
				}
			}
			gotLPD := got.Truncate()
			differs := false
			for i, k := range perm {
				for p := range want.X[k] {
					for j, w := range want.X[k][p] {
						if g := got.X[i][p][j]; math.Abs(g-w) > 1e-7 || gotLPD.X[i][p][j] != wantLPD.X[k][p][j] {
							t.Fatalf("%s: x[job %d][%d][%d] = %.10g, reference %.10g", name, c.inst.Jobs[k].ID, p, j, g, w)
						}
						differs = differs || math.Abs(gotPlain.X[i][p][j]-wantPlain.X[k][p][j]) > 1e-7
					}
				}
			}
			if differs {
				plainDiffer++
			}
		}
		for _, pricing := range []lp.Pricing{lp.Dantzig, lp.PartialDantzig, lp.Devex, lp.Bland} {
			for _, refactor := range []int{1, 7, 64} {
				for start := lexCold; start < numLexStarts; start++ {
					for _, perm := range [][]int{identityPerm(c.inst.NumJobs()), rng.Perm(c.inst.NumJobs())} {
						for _, artificial := range []bool{false, true} {
							opts := lp.Options{MaxIter: 200000, Pricing: pricing, RefactorEvery: refactor, ArtificialCrash: artificial}
							check(opts, start, perm, false)
							check(opts, start, perm, true)
							if t.Failed() {
								return
							}
						}
					}
				}
			}
		}
	}
	if overloaded < 10 || len(cases)-overloaded < 10 {
		t.Errorf("%d of %d cases overloaded: the set must have both kinds", overloaded, len(cases))
	}
	if rowsDropped < 20*len(cases) {
		t.Errorf("%d dominated capacity rows over %d cases: the closed arm exercises nothing", rowsDropped, len(cases))
	}
	if rowsRestored == 0 {
		t.Errorf("no closed chain gave a row back: its masters never grew past their dominance")
	}
	// Without the secondary objective the same solves land all over the
	// optimal face; if they did not, the property above would hold trivially.
	if plainDiffer < solved/2 {
		t.Errorf("only %d of %d plain solves left the reference's plain vertex: the optimal faces are too small to exercise anything", plainDiffer, solved)
	}
	t.Logf("%d cases (%d overloaded, %d dominated capacity rows, %d given back by the closed chains), %d of %d plain solves on another vertex than the reference's",
		len(cases), overloaded, rowsDropped, rowsRestored, plainDiffer, solved)
}
