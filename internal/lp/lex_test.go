package lp

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// lexShape sizes one generated stage-2-shaped LP: jobs with a weight, a
// demand, a slice window and a few paths (edge sets) each; one variable per
// (job, path, in-window slice) plus one throughput variable per job; one
// coupling row per job and one capacity row per loaded (edge, slice).
type lexShape struct {
	seed                       int64
	jobs, paths, slices, edges int
	load                       int // demand scale in eighths of a slice's capacity; high values overload
}

// clamp brings fuzzed sizes into the range the generator handles quickly.
func (sh lexShape) clamp() lexShape {
	fit := func(v, lo, hi int) int { return lo + v%(hi-lo+1) }
	sh.jobs = fit(sh.jobs, 1, 7)
	sh.paths = fit(sh.paths, 1, 4)
	sh.slices = fit(sh.slices, 1, 5)
	sh.edges = fit(sh.edges, 2, 9)
	sh.load = fit(sh.load, 1, 40)
	return sh
}

type lexJob struct {
	id          int
	size, w     float64
	first, last int
	paths       [][]int // sorted edge lists, distinct within the job
}

// lexGen is the order-free description of one generated LP.
type lexGen struct {
	slices int
	caps   []float64
	floor  float64
	jobs   []lexJob
}

func newLexGen(sh lexShape) *lexGen {
	rng := rand.New(rand.NewSource(sh.seed))
	g := &lexGen{slices: sh.slices, caps: make([]float64, sh.edges)}
	for e := range g.caps {
		g.caps[e] = float64(1 + rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		g.floor = 0.05 // a fairness floor some instances cannot meet: those are skipped
	}
	classes := []float64{0.1, 1, 8} // three priority classes
	for i := 0; i < sh.jobs; i++ {
		jb := lexJob{id: 100 + i, w: classes[rng.Intn(len(classes))]}
		jb.size = float64(1+rng.Intn(8)) * float64(sh.load) / 8
		jb.first = rng.Intn(sh.slices)
		jb.last = jb.first + rng.Intn(sh.slices-jb.first)
		seen := map[string]bool{}
		for p := 0; p < sh.paths; p++ {
			n := 1 + rng.Intn(3)
			if n > sh.edges {
				n = sh.edges
			}
			path := rng.Perm(sh.edges)[:n]
			sort.Ints(path)
			if k := fmt.Sprint(path); !seen[k] {
				seen[k] = true
				jb.paths = append(jb.paths, path)
			}
		}
		g.jobs = append(g.jobs, jb)
	}
	return g
}

// identity is the build order the reference solve uses.
func (g *lexGen) identity() []int {
	order := make([]int, len(g.jobs))
	for i := range order {
		order[i] = i
	}
	return order
}

// lexTie is a tie-break in [0, ½) keyed on what a variable means — job id,
// path, slice — the way internal/schedule keys its own.
func lexTie(id int, path []int, j int) float64 {
	h := fnv.New64a()
	fmt.Fprint(h, id, path)
	z := h.Sum64() + (uint64(j)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 54)
}

// lexLP is one build of a lexGen: the model, its secondary objective and,
// per variable, a key that names it in any build ("" for the throughput
// variables, which the secondary objective leaves alone).
type lexLP struct {
	m    *Model
	sec  []float64
	keys []string
	caps []RowID
}

// build assembles the LP with the jobs in the given order and each job's
// paths rotated by rot. Path columns go in by AddColumn, one batch per path
// rank, each capacity row appended by the first column to load it — the
// growth pattern of column generation — and grow, when non-nil, is called
// after every batch with the columns and LE rows it appended.
func (g *lexGen) build(order []int, rot int, grow func(lp *lexLP, addedVars, addedRows int)) *lexLP {
	lp := &lexLP{m: NewModel("lex-stage2", Maximize)}
	wsum := 0.0
	for _, jb := range g.jobs {
		wsum += jb.w * jb.size
	}
	zv := make([]VarID, len(g.jobs))
	for _, i := range order {
		jb := g.jobs[i]
		zv[i] = lp.m.AddVar(fmt.Sprintf("Z_%d", jb.id), g.floor, Inf, jb.w*jb.size/wsum)
		lp.keys = append(lp.keys, "")
		lp.sec = append(lp.sec, 0)
	}
	couple := make([]RowID, len(g.jobs))
	for _, i := range order {
		couple[i] = lp.m.AddRow(fmt.Sprintf("job%d", g.jobs[i].id), EQ, 0)
		lp.m.AddTerm(couple[i], zv[i], -g.jobs[i].size)
	}
	capRow := map[[2]int]RowID{}
	for rank := 0; ; rank++ {
		nv, nr := 0, 0
		for _, i := range order {
			jb := g.jobs[i]
			if rank >= len(jb.paths) {
				continue
			}
			path := jb.paths[(rank+rot)%len(jb.paths)]
			for j := jb.first; j <= jb.last; j++ {
				rows, coefs := []RowID{couple[i]}, []float64{1}
				for _, e := range path {
					r, ok := capRow[[2]int{e, j}]
					if !ok {
						r = lp.m.AddRow(fmt.Sprintf("cap_e%d_t%d", e, j), LE, g.caps[e])
						capRow[[2]int{e, j}] = r
						lp.caps = append(lp.caps, r)
						nr++
					}
					rows, coefs = append(rows, r), append(coefs, 1)
				}
				key := fmt.Sprintf("x_%d_%v_%d", jb.id, path, j)
				if _, err := lp.m.AddColumn(key, 0, Inf, 0, rows, coefs); err != nil {
					panic(err)
				}
				lp.keys = append(lp.keys, key)
				lp.sec = append(lp.sec, -(float64(j+1) + lexTie(jb.id, path, j)))
				nv++
			}
		}
		if nv == 0 {
			return lp
		}
		if grow != nil {
			grow(lp, nv, nr)
		}
	}
}

// lexStart is how a solve of the property test starts.
type lexStart int

const (
	lexCold  lexStart = iota
	lexStale          // warm from the optimal basis of the same model at half the capacities
	lexChain          // warm through a Basis.Extend chain, one link per batch of appended columns
	numLexStarts
)

var lexPricings = []Pricing{Dantzig, PartialDantzig, Bland}
var lexRefactors = []int{1, 7, 64}

// lexSolve builds the LP in the given order and solves it twice from the
// same start under the same options: without the secondary objective and
// with it. ok is false when the LP has no optimum (an unmeetable floor).
func lexSolve(t *testing.T, g *lexGen, order []int, rot int, opts Options, start lexStart) (lp *lexLP, plain, lex *Solution, ok bool) {
	t.Helper()
	must := func(sol *Solution, err error) *Solution {
		t.Helper()
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		return sol
	}
	opts.CaptureBasis = true
	switch start {
	case lexCold:
		lp = g.build(order, rot, nil)
	case lexStale:
		lp = g.build(order, rot, nil)
		for _, r := range lp.caps {
			lp.m.setRHS(r, lp.m.rhs(r)/2)
		}
		stale := must(lp.m.SolveWith(opts))
		for _, r := range lp.caps {
			lp.m.setRHS(r, lp.m.rhs(r)*2)
		}
		opts.WarmStart = stale.Basis // nil after an infeasible cold exit without one: a cold solve
	case lexChain:
		var link *Solution
		lp = g.build(order, rot, func(lp *lexLP, nv, nr int) {
			o := opts
			if link != nil && link.Basis != nil {
				o.WarmStart = link.Basis.Extend(nv, nr)
			}
			link = must(lp.m.SolveWith(o))
		})
		if link != nil {
			opts.WarmStart = link.Basis
		}
	}
	plain = must(lp.m.SolveWith(opts))
	if plain.Status != Optimal {
		return lp, plain, nil, false
	}
	opts.Secondary = lp.sec
	lex = must(lp.m.SolveWith(opts))
	if lex.Status != Optimal {
		t.Fatalf("lexicographic solve ended %v where the plain solve is optimal", lex.Status)
	}
	return lp, plain, lex, true
}

// checkLexInvariance is the property: the lexicographic solve returns the
// same point — within 1e-7, and to the same integers after the schedule
// layer's truncation — from every pricing rule, refactorization period and
// start the cases select, from either crash basis and in any build order;
// its primary objective is the plain solve's within 1e-9 and its duals are
// the plain solve's, bit for bit. It returns false when the LP has no
// optimum.
func checkLexInvariance(t *testing.T, sh lexShape, cases int) bool {
	t.Helper()
	g := newLexGen(sh)
	identity := g.identity()
	_, _, ref, ok := lexSolve(t, g, identity, 0, Options{}, lexCold)
	if !ok {
		return false
	}
	refLP := g.build(identity, 0, nil)
	want := make(map[string]float64, len(refLP.keys))
	for v, k := range refLP.keys {
		if k != "" {
			want[k] = ref.X[v]
		}
	}
	rng := rand.New(rand.NewSource(sh.seed ^ 0x5eed))
	perOrder := len(lexPricings) * len(lexRefactors) * int(numLexStarts)
	all := perOrder * 2 * 2
	for c := 0; c < all; c++ {
		if cases < all && rng.Intn(all) >= cases {
			continue
		}
		pricing := lexPricings[c%len(lexPricings)]
		refactor := lexRefactors[c/len(lexPricings)%len(lexRefactors)]
		start := lexStart(c / (len(lexPricings) * len(lexRefactors)) % int(numLexStarts))
		order, rot := identity, 0
		if c/perOrder%2 == 1 {
			order, rot = rng.Perm(len(g.jobs)), 1+rng.Intn(3)
		}
		opts := Options{Pricing: pricing, RefactorEvery: refactor, ArtificialCrash: c >= all/2}
		name := fmt.Sprintf("seed %d %v/%d start %d artificial crash %v order %v", sh.seed, pricing, refactor, start, opts.ArtificialCrash, order)
		lp, plain, lex, ok := lexSolve(t, g, order, rot, opts, start)
		if !ok {
			t.Fatalf("%s: plain solve ended %v, the reference is optimal", name, plain.Status)
		}
		if d := math.Abs(lex.Objective - plain.Objective); d > 1e-9 {
			t.Errorf("%s: primary objective %.12g, plain solve %.12g", name, lex.Objective, plain.Objective)
		}
		for r := range plain.Duals {
			if math.Float64bits(lex.Duals[r]) != math.Float64bits(plain.Duals[r]) {
				t.Errorf("%s: dual of row %d is %v, plain solve %v", name, r, lex.Duals[r], plain.Duals[r])
				break
			}
		}
		for v, k := range lp.keys {
			if k == "" {
				continue
			}
			if got := lex.X[v]; math.Abs(got-want[k]) > 1e-7 || math.Floor(got+1e-6) != math.Floor(want[k]+1e-6) {
				t.Errorf("%s: %s = %.10g, reference %.10g", name, k, got, want[k])
				break
			}
		}
		if t.Failed() {
			return true
		}
	}
	return true
}

// lexSeedShape is the shape the seeded property test and the fuzz corpus
// derive from a seed.
func lexSeedShape(seed int64) lexShape {
	s := int(seed)
	return lexShape{seed: seed, jobs: 3 + s%4, paths: 2 + s%3, slices: 2 + s%4, edges: 3 + s%6, load: 2 + 5*(s%7)}.clamp()
}

// TestLexInvariance runs the whole matrix — 3 pricing rules × 3
// refactorization periods × {cold, stale basis, Extend chain} × {build
// order, shuffled} × {slack start, Options.ArtificialCrash} — on seeded
// stage-2-shaped LPs. The same property over the schedule layer's own models
// is internal/schedule.TestStage2LexInvariance.
func TestLexInvariance(t *testing.T) {
	solved := 0
	for seed := int64(1); seed <= 60; seed++ {
		if checkLexInvariance(t, lexSeedShape(seed), math.MaxInt) {
			solved++
		}
		if t.Failed() {
			return
		}
	}
	if solved < 50 {
		t.Fatalf("only %d of 60 generated LPs have an optimum", solved)
	}
}

// FuzzLexInvariance is the same property with the fuzzer choosing the
// instance; each input checks a sample of the matrix.
func FuzzLexInvariance(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		sh := lexSeedShape(seed)
		f.Add(sh.seed, uint8(sh.jobs), uint8(sh.paths), uint8(sh.slices), uint8(sh.edges), uint8(sh.load))
	}
	f.Fuzz(func(t *testing.T, seed int64, jobs, paths, slices, edges, load uint8) {
		sh := lexShape{seed: seed, jobs: int(jobs), paths: int(paths), slices: int(slices), edges: int(edges), load: int(load)}
		checkLexInvariance(t, sh.clamp(), 8)
	})
}

// TestLexPhaseLeavesThePrimalProblemInPlace: after a lexicographic solve the
// captured basis is an optimal basis of the primary problem — a plain warm
// solve from it makes no pivot — and a secondary objective of the wrong
// length or with a NaN is an error, not a silent plain solve.
func TestLexPhaseLeavesThePrimalProblemInPlace(t *testing.T) {
	g := newLexGen(lexSeedShape(3))
	lp := g.build(g.identity(), 0, nil)
	lex, err := lp.m.SolveWith(Options{Secondary: lp.sec, CaptureBasis: true})
	if err != nil || lex.Status != Optimal {
		t.Fatalf("lexicographic solve: %v, %v", lex, err)
	}
	if lex.LexIters == 0 {
		t.Fatal("the second phase made no pivot: the instance exercises nothing")
	}
	again, err := lp.m.SolveWith(Options{WarmStart: lex.Basis})
	if err != nil || again.Status != Optimal || again.Warm != "hit" {
		t.Fatalf("plain warm solve from the lexicographic basis: %+v, %v", again, err)
	}
	if again.Iters != 0 {
		t.Errorf("plain warm solve from the lexicographic basis took %d pivots, want 0", again.Iters)
	}
	if math.Abs(again.Objective-lex.Objective) > 1e-9 {
		t.Errorf("objective %v from the lexicographic basis, %v reported", again.Objective, lex.Objective)
	}
	if _, err := lp.m.SolveWith(Options{Secondary: lp.sec[1:]}); err == nil {
		t.Error("short Secondary accepted")
	}
	bad := append([]float64(nil), lp.sec...)
	bad[len(bad)-1] = math.NaN()
	if _, err := lp.m.SolveWith(Options{Secondary: bad}); err == nil {
		t.Error("NaN in Secondary accepted")
	}
}
