package lp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wavesched/internal/telemetry"
)

// pivotDeltas runs fn and returns what it added to lp_pivots_total and to
// the phase-1, phase-2 and lexicographic pivot counters.
func pivotDeltas(fn func()) (pivots, phases int64) {
	p0, a0, b0, c0 := telPivots.Value(), telPhase1Pivots.Value(), telPhase2Pivots.Value(), telLexPivots.Value()
	fn()
	return telPivots.Value() - p0,
		telPhase1Pivots.Value() - a0 + telPhase2Pivots.Value() - b0 + telLexPivots.Value() - c0
}

// tightenable returns a generated stage-2-shaped LP and a factor such that
// scaling its capacity rows by the factor leaves the LP's optimal basis
// primal infeasible and the LP still feasible: a warm solve from that basis
// has dual pivots to make.
func tightenable(t *testing.T) (*lexLP, float64) {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		g := newLexGen(lexSeedShape(seed))
		lp := g.build(g.identity(), 0, nil)
		base, err := lp.m.SolveWith(Options{CaptureBasis: true})
		if err != nil || base.Status != Optimal {
			continue
		}
		for _, f := range []float64{0.75, 0.5} {
			scaleCaps(lp, f)
			sol, err := lp.m.SolveWith(Options{WarmStart: base.Basis})
			scaleCaps(lp, 1/f)
			if err == nil && sol.Status == Optimal && sol.Iters > 0 {
				return lp, f
			}
		}
	}
	t.Fatal("no generated LP has an optimal basis a tightening leaves infeasible")
	return nil, 0
}

// scaleCaps scales the right-hand sides of the capacity rows by f.
func scaleCaps(lp *lexLP, f float64) {
	for _, r := range lp.caps {
		lp.m.setRHS(r, lp.m.rhs(r)*f)
	}
}

// TestPivotCountersAddUp: every pivot a solve makes is a phase-1, phase-2
// or lexicographic pivot, so lp_pivots_total moves by the sum of the three
// counters — for a cold solve, for a warm one whose dual pass needs a primal
// clean-up, for a warm one that needs none (its dual pivots are phase-2
// pivots), and for an Incremental re-entry.
func TestPivotCountersAddUp(t *testing.T) {
	lp, f := tightenable(t)
	check := func(name string, fn func() *Solution) *Solution {
		t.Helper()
		var sol *Solution
		pivots, phases := pivotDeltas(func() { sol = fn() })
		if sol == nil || sol.Status != Optimal {
			t.Fatalf("%s: %+v", name, sol)
		}
		if pivots != phases {
			t.Errorf("%s: lp_pivots_total moved by %d, the phase counters by %d", name, pivots, phases)
		}
		if pivots == 0 {
			t.Errorf("%s: no pivot, the case exercises nothing", name)
		}
		return sol
	}
	solve := func(opts Options) *Solution {
		t.Helper()
		sol, err := lp.m.SolveWith(opts)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	base := check("cold", func() *Solution { return solve(Options{Secondary: lp.sec, CaptureBasis: true}) })
	if base.LexIters == 0 || base.Phase1Iters == 0 {
		t.Errorf("cold solve: %d phase-1 and %d lexicographic pivots, want some of each", base.Phase1Iters, base.LexIters)
	}

	// Tighter capacities leave the optimum primal infeasible: the dual pass
	// repairs it and, the costs being the same, needs no clean-up.
	scaleCaps(lp, f)
	check("warm without clean-up", func() *Solution { return solve(Options{WarmStart: base.Basis}) })
	scaleCaps(lp, 1/f)

	// An Incremental re-enters after a bound change: the largest flow is
	// capped at half its value.
	inc := NewIncremental(lp.m, Options{})
	defer inc.Release()
	first, err := inc.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("incremental solve: %v, %v", first, err)
	}
	top := 0
	for v := range first.X {
		if lp.keys[v] != "" && first.X[v] > first.X[top] {
			top = v
		}
	}
	lp.m.SetBounds(VarID(top), 0, first.X[top]/2)
	check("incremental re-entry", func() *Solution {
		sol, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if inc.full {
			t.Error("the re-entry started over")
		}
		return sol
	})
	lp.m.SetBounds(VarID(top), 0, Inf)

	// Other weights on the throughput variables leave the optimum dual
	// infeasible: the primal clean-up pivots.
	for v := 0; v < lp.m.NumVars(); v++ {
		if lp.keys[v] == "" {
			lp.m.SetObj(VarID(v), float64(1+v%3))
		}
	}
	check("warm with clean-up", func() *Solution { return solve(Options{WarmStart: base.Basis}) })
}

// TestIncrementalSolveIsTraced: an Incremental solve is an lp.solve span
// like a SolveWith, which says whether it re-entered the chain or started
// over, and only a start over names its crash basis.
func TestIncrementalSolveIsTraced(t *testing.T) {
	g := newLexGen(lexSeedShape(3))
	lp := g.build(g.identity(), 0, nil)
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	inc := NewIncremental(lp.m, Options{Tracer: tr})
	defer inc.Release()
	for i := 0; i < 2; i++ {
		if sol, err := inc.Solve(); err != nil || sol.Status != Optimal {
			t.Fatalf("solve %d: %v, %v", i, sol, err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Name  string
			Attrs struct{ Incremental, Crash string }
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name == "lp.solve" {
			got = append(got, rec.Attrs.Incremental+"/"+rec.Attrs.Crash)
		}
	}
	if want := []string{"full/slack", "reentry/"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lp.solve spans %v, want %v", got, want)
	}
}

// remapCase carries the optimal basis of a generated stage-2-shaped LP onto
// a neighbour — some jobs dropped, the rest built in another order — through
// maps that also forget a random share of the counterparts that exist, and
// returns the neighbour with the carried basis.
func remapCase(t *testing.T, sh lexShape, keep uint8) (*lexLP, *Basis, bool) {
	t.Helper()
	g := newLexGen(sh)
	from := g.build(g.identity(), 0, nil)
	sol, err := from.m.SolveWith(Options{Secondary: from.sec, CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		return nil, nil, false
	}
	rng := rand.New(rand.NewSource(sh.seed ^ int64(keep)<<32))
	next := *g
	next.jobs = nil
	for _, jb := range g.jobs {
		if rng.Intn(4) != 0 || len(next.jobs) == 0 {
			next.jobs = append(next.jobs, jb)
		}
	}
	to := next.build(rng.Perm(len(next.jobs)), rng.Intn(3), nil)
	// What a variable and a row mean is its name: Z_id, x_id_path_slice,
	// job<id>, cap_e<edge>_t<slice>.
	forget := func() bool { return rng.Intn(256) >= int(keep) }
	vars := unmappedIdx(from.m.NumVars())
	newVar := map[string]int{}
	for v := range to.m.vars {
		newVar[to.m.vars[v].name] = v
	}
	for v := range from.m.vars {
		if nv, ok := newVar[from.m.vars[v].name]; ok && !forget() {
			vars[v] = nv
		}
	}
	rows := unmappedIdx(from.m.NumRows())
	newRow := map[string]int{}
	for r := range to.m.rows {
		newRow[to.m.rows[r].name] = r
	}
	for r := range from.m.rows {
		if nr, ok := newRow[from.m.rows[r].name]; ok && !forget() {
			rows[r] = nr
		}
	}
	return to, Remap(to.m, Carried{Basis: sol.Basis, Vars: vars, Rows: rows}), true
}

func unmappedIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// checkRemap is FuzzRemapBasis' property: the carried basis squares to a
// basis that factors — one column per row, each once — and the lexicographic
// warm solve from it is a warm hit that returns the cold solve's plan.
func checkRemap(t *testing.T, sh lexShape, keep uint8) {
	to, ws, ok := remapCase(t, sh, keep)
	if !ok {
		return
	}
	bf := borrowBufs(to.m.shape())
	defer releaseBufs(bf)
	s := to.m.assemble(Options{}, bf)
	if !ws.compatible(s) {
		t.Fatal("the remapped basis does not fit the model it was remapped onto")
	}
	if err := s.startFrom(ws); err != nil {
		t.Fatalf("the squared basis does not factor: %v", err)
	}
	for slot, j := range s.basis {
		if s.pos[j] != slot || s.state[j] != stBasic {
			t.Fatalf("slot %d holds column %d at position %d, state %d", slot, j, s.pos[j], s.state[j])
		}
	}

	cold, err := to.m.SolveWith(Options{Secondary: to.sec})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := to.m.SolveWith(Options{Secondary: to.sec, WarmStart: ws})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != cold.Status || warm.Warm != "hit" {
		t.Fatalf("warm solve %v (%q), cold %v", warm.Status, warm.Warm, cold.Status)
	}
	if cold.Status != Optimal {
		return
	}
	for v, k := range to.keys {
		if k != "" && (math.Abs(warm.X[v]-cold.X[v]) > 1e-7 || math.Floor(warm.X[v]+1e-6) != math.Floor(cold.X[v]+1e-6)) {
			t.Fatalf("%s = %.10g warm, %.10g cold", k, warm.X[v], cold.X[v])
		}
	}
}

// FuzzRemapBasis: random keep/drop maps over an optimal basis — jobs
// dropped, the build order shuffled, a share keep/256 of the surviving
// counterparts carried — must square to a factorizable basis, and the warm
// solve from it must reach the cold plan.
func FuzzRemapBasis(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		sh := lexSeedShape(seed)
		f.Add(sh.seed, uint8(sh.jobs), uint8(sh.paths), uint8(sh.slices), uint8(sh.edges), uint8(sh.load), uint8(64*(seed%5)))
	}
	f.Fuzz(func(t *testing.T, seed int64, jobs, paths, slices, edges, load, keep uint8) {
		sh := lexShape{seed: seed, jobs: int(jobs), paths: int(paths), slices: int(slices), edges: int(edges), load: int(load)}
		checkRemap(t, sh.clamp(), keep)
	})
}
