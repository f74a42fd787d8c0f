package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/lp/dense"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/workload"
)

// domShape sizes one generated instance of the dominance property: one or
// two disjoint rings with chords, a few jobs inside each, K-shortest path
// sets, and per-(edge, slice) capacity overrides on top.
type domShape struct {
	seed        int64
	nodes, jobs int // per ring
	k           int // index into {2, 4, 8}
	load        int // demand scale; high values overload
	over        int // bit 0: SetCapacity overrides, bit 1: a maskLinksDown window, bit 2: a second ring
}

// clamp brings fuzzed sizes into the range the generator handles quickly.
func (sh domShape) clamp() domShape {
	fit := func(v, lo, hi int) int { return lo + v%(hi-lo+1) }
	sh.nodes = fit(sh.nodes, 4, 8)
	sh.jobs = fit(sh.jobs, 1, 5)
	sh.k = fit(sh.k, 0, 2)
	sh.load = fit(sh.load, 1, 12)
	sh.over = fit(sh.over, 0, 7)
	return sh
}

// domSeedShape is the shape the seeded property test and the fuzz corpus
// derive from a seed.
func domSeedShape(seed int64) domShape {
	s := int(seed)
	return domShape{seed: seed, nodes: 4 + s%5, jobs: 1 + s%5, k: s % 3, load: 1 + 3*(s%4), over: s % 8}.clamp()
}

const domSlices = 5

// domInstance builds the instance of a shape.
func domInstance(t testing.TB, sh domShape) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(sh.seed))
	g := netgraph.New("dom")
	rings := 1 + sh.over>>2&1
	var jobs []job.Job
	for r := 0; r < rings; r++ {
		nodes := make([]netgraph.NodeID, sh.nodes)
		for i := range nodes {
			nodes[i] = g.AddNode("", float64(i), float64(r))
		}
		link := func(a, b int) {
			if err := g.AddPair(nodes[a], nodes[b], 1+rng.Intn(3), 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := range nodes {
			link(i, (i+1)%len(nodes))
		}
		for c := 0; c < len(nodes)/3; c++ { // chords between non-neighbours, no parallel links
			a := rng.Intn(len(nodes))
			if b := (a + 2 + c) % len(nodes); b != a && (b+1)%len(nodes) != a {
				link(a, b)
			}
		}
		for i := 0; i < sh.jobs; i++ {
			src := rng.Intn(len(nodes))
			dst := (src + 1 + rng.Intn(len(nodes)-1)) % len(nodes)
			first := rng.Intn(domSlices - 1)
			last := first + 1 + rng.Intn(domSlices-first-1)
			jobs = append(jobs, job.Job{
				ID: job.ID(100*r + i), Src: nodes[src], Dst: nodes[dst],
				Size:  float64(1+rng.Intn(4)) * float64(sh.load) / 2,
				Start: float64(first), End: float64(last + 1),
			})
		}
	}
	inst, err := NewInstance(g, mustGrid(t, domSlices), jobs, []int{2, 4, 8}[sh.k])
	if err != nil {
		t.Fatal(err)
	}
	if sh.over&1 != 0 {
		// Overrides on cells paths do load: to nothing, down by one, up by one.
		for n := 0; n < 4; n++ {
			k := rng.Intn(len(jobs))
			path := inst.JobPaths[k][rng.Intn(len(inst.JobPaths[k]))]
			e := path.Edges[rng.Intn(len(path.Edges))]
			w := g.Edge(e).Wavelengths
			if err := inst.SetCapacity(e, rng.Intn(domSlices), []int{0, w - 1, w + 1}[n%3]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sh.over&2 != 0 {
		path := inst.JobPaths[0][len(inst.JobPaths[0])-1]
		if err := maskLinksDown(inst, path.Edges[:1], 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// domStats is what the instances of a run exercised.
type domStats struct {
	instances, decomposed, dense int
	dropped, byCapacity, twins   int
}

// checkDominatedRows is the property: the closed models of an instance —
// built without their dominated capacity rows — are the LPs the all-rows
// builder poses.
//
//   - The layout is right by brute force: every cell without a row is
//     dominated by one that has a row, and no cell with a row is dominated
//     by another with a row.
//   - The reduced stage-1 model's Z* is the all-rows model's within 1e-9,
//     whole and as the minimum over components; on a tiny instance both are
//     the optimum lp/dense finds for the program written out from the
//     instance, cell by cell.
//   - The reduced stage-2 model's canonical plan is the all-rows model's
//     within 1e-7 and cell for cell after Truncate, whole and merged from
//     components, and Assignment.VerifyCapacity — which walks every (edge,
//     slice), dropped or not — accepts it.
func checkDominatedRows(t testing.TB, sh domShape, st *domStats) {
	t.Helper()
	inst := domInstance(t, sh)
	name := fmt.Sprintf("%+v", sh)
	opts := partialDantzigOpts()
	st.instances++

	// The layout, against a brute-force reading of the definition.
	type cell struct {
		key  capKey
		vars map[[2]int]bool
		cap  int
	}
	byKey := map[capKey]*cell{}
	var cellList []*cell
	for k := range inst.Jobs {
		first, last := inst.Window(k)
		for p, path := range inst.JobPaths[k] {
			for j := first; j <= last; j++ {
				for _, e := range path.Edges {
					c := byKey[capKey{e, j}]
					if c == nil {
						c = &cell{key: capKey{e, j}, vars: map[[2]int]bool{}, cap: inst.Capacity(e, j)}
						byKey[c.key] = c
						cellList = append(cellList, c)
					}
					c.vars[[2]int{k, p}] = true
				}
			}
		}
	}
	within := func(a, b *cell) bool { // vars(a) ⊆ vars(b), two cells of one slice
		if b == a || b.key.j != a.key.j {
			return false
		}
		for v := range a.vars {
			if !b.vars[v] {
				return false
			}
		}
		return true
	}
	dominates := func(b, a *cell) bool { return within(a, b) && b.cap <= a.cap }
	cells := inst.closedCells()
	kept := map[capKey]bool{}
	for _, ck := range cells.kept {
		if kept[ck] || byKey[ck] == nil {
			t.Fatalf("%s: cell %+v kept twice or not loaded", name, ck)
		}
		kept[ck] = true
	}
	if len(kept)+cells.dropped != len(cellList) {
		t.Fatalf("%s: %d rows + %d dropped, %d loaded cells", name, len(kept), cells.dropped, len(cellList))
	}
	for _, a := range cellList {
		covered := false
		for _, b := range cellList {
			if !kept[b.key] {
				continue
			}
			if dominates(b, a) {
				covered = true
				if kept[a.key] {
					t.Fatalf("%s: cell %+v has a row and so has %+v, which dominates it", name, a.key, b.key)
				}
				if dominates(a, b) {
					st.twins++
				}
			} else if kept[a.key] && within(a, b) {
				st.byCapacity++ // only its larger capacity keeps b from standing in for a
			}
		}
		if !kept[a.key] && !covered {
			t.Fatalf("%s: cell %+v has no row and no cell with a row dominates it", name, a.key)
		}
	}
	st.dropped += cells.dropped

	// Stage 1.
	solve := func(m *lp.Model, o lp.Options) *lp.Solution {
		t.Helper()
		sol, err := m.SolveWith(o)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s: %s: %v, %v", name, m.Name(), sol, err)
		}
		return sol
	}
	mAll, zAll, _, allRows, err := buildStage1Model("stage1-all-rows", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	mRed, zRed, _, _, err := buildStage1Model("stage1-closed", inst, inst.closedCells())
	if err != nil {
		t.Fatal(err)
	}
	if len(allRows.kept) != len(cellList) || allRows.dropped != 0 || mRed.NumRows()+cells.dropped != mAll.NumRows() {
		t.Fatalf("%s: all-rows model has %d capacity rows (%d dropped) for %d cells; closed model %d rows + %d dropped of %d",
			name, len(allRows.kept), allRows.dropped, len(cellList), mRed.NumRows(), cells.dropped, mAll.NumRows())
	}
	zstar := solve(mAll, opts).Value(zAll)
	if got := solve(mRed, opts).Value(zRed); math.Abs(got-zstar) > 1e-9 {
		t.Fatalf("%s: closed stage-1 model has Z* = %.12g, all-rows model %.12g", name, got, zstar)
	}
	comps := Decompose(inst, nil)
	if len(comps) > 1 {
		st.decomposed++
		zmin := math.Inf(1)
		for _, c := range comps {
			s1, err := SolveStage1(c.Inst, opts)
			if err != nil {
				t.Fatalf("%s: component %s: %v", name, c.Key, err)
			}
			zmin = math.Min(zmin, s1.ZStar)
		}
		if math.Abs(zmin-zstar) > 1e-9 {
			t.Fatalf("%s: components' closed stage-1 models have min Z* = %.12g, all-rows model %.12g", name, zmin, zstar)
		}
	}
	if mAll.NumVars() <= 60 {
		st.dense++
		if got := denseStage1(t, inst); math.Abs(got-zstar) > 1e-7 {
			t.Fatalf("%s: lp/dense finds Z* = %.10g, the all-rows model %.10g", name, got, zstar)
		}
	}

	// Stage 2, ending with the lexicographic phase.
	plan := func(cells *capCells) *Assignment {
		t.Helper()
		m, _, xv, _, err := buildStage2Model(inst, zstar, lexAlpha, nil, cells)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Secondary = stage2Secondary(inst, m, xv)
		return extractAssignment(inst, xv, solve(m, o))
	}
	want := plan(nil)
	same := func(what string, got *Assignment) {
		t.Helper()
		wantLPD, gotLPD := want.Truncate(), got.Truncate()
		for k := range want.X {
			for p := range want.X[k] {
				for j, w := range want.X[k][p] {
					if g := got.X[k][p][j]; math.Abs(g-w) > 1e-7 || gotLPD.X[k][p][j] != wantLPD.X[k][p][j] {
						t.Fatalf("%s: %s: x[job %d][%d][%d] = %.10g, all-rows model %.10g", name, what, inst.Jobs[k].ID, p, j, g, w)
					}
				}
			}
		}
		if err := got.VerifyCapacity(1e-6); err != nil {
			t.Fatalf("%s: %s: %v", name, what, err)
		}
	}
	same("closed stage-2 model", plan(inst.closedCells()))
	res, err := MaxThroughputWithZ(inst, &Stage1Result{ZStar: zstar}, Config{Alpha: lexAlpha, Solver: opts})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Components != len(comps) {
		t.Fatalf("%s: solved as %d components, decomposes into %d", name, res.Components, len(comps))
	}
	same("MaxThroughputWithZ", res.LP)
}

// denseStage1 writes the stage-1 program out from the instance — every
// loaded (edge, slice) its own row — and returns the Z* lp/dense finds.
func denseStage1(t testing.TB, inst *Instance) float64 {
	t.Helper()
	type xvar struct{ k, p, j int }
	var xs []xvar
	for k := range inst.Jobs {
		first, last := inst.Window(k)
		for p := range inst.JobPaths[k] {
			for j := first; j <= last; j++ {
				xs = append(xs, xvar{k, p, j})
			}
		}
	}
	n := 1 + len(xs) // Z first
	prob := &dense.Problem{C: make([]float64, n)}
	prob.C[0] = -1
	for k, jb := range inst.Jobs {
		row := make([]float64, n)
		row[0] = -jb.Size
		for i, x := range xs {
			if x.k == k {
				row[1+i] = inst.Grid.Len(x.j)
			}
		}
		prob.A, prob.B, prob.Op = append(prob.A, row), append(prob.B, 0), append(prob.Op, dense.EQ)
	}
	for e := 0; e < inst.G.NumEdges(); e++ {
		for j := 0; j < inst.Grid.Num(); j++ {
			row, loaded := make([]float64, n), false
			for i, x := range xs {
				if x.j != j {
					continue
				}
				for _, pe := range inst.JobPaths[x.k][x.p].Edges {
					if int(pe) == e {
						row[1+i], loaded = 1, true
					}
				}
			}
			if loaded {
				prob.A = append(prob.A, row)
				prob.B = append(prob.B, float64(inst.Capacity(netgraph.EdgeID(e), j)))
				prob.Op = append(prob.Op, dense.LE)
			}
		}
	}
	sol, err := prob.Solve(0)
	if err != nil || sol.Status != dense.Optimal {
		t.Fatalf("lp/dense: %+v, %v", sol, err)
	}
	return -sol.Objective
}

// TestDominatedRowsProperty runs checkDominatedRows over seeded instances:
// K ∈ {2, 4, 8}, lightly loaded and overloaded, with and without capacity
// overrides (to 0 among them) and a maskLinksDown window, whole and
// decomposing into components.
func TestDominatedRowsProperty(t *testing.T) {
	var st domStats
	for seed := int64(1); seed <= 64; seed++ {
		checkDominatedRows(t, domSeedShape(seed), &st)
	}
	t.Logf("%+v", st)
	for _, c := range []struct {
		what    string
		n, want int
	}{
		{"instances", st.instances, 50}, {"instances that decompose", st.decomposed, 15},
		{"instances small enough for lp/dense", st.dense, 15},
		{"dominated cells", st.dropped, 1000}, {"dominated twins", st.twins, 50},
		{"cells that only a dominator's larger capacity keeps in", st.byCapacity, 20},
	} {
		if c.n < c.want {
			t.Errorf("only %d %s, want %d: the generator no longer exercises the property", c.n, c.what, c.want)
		}
	}
}

// FuzzDominatedRows is the same property with the fuzzer choosing the
// instance.
func FuzzDominatedRows(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		sh := domSeedShape(seed)
		f.Add(sh.seed, uint8(sh.nodes), uint8(sh.jobs), uint8(sh.k), uint8(sh.load), uint8(sh.over))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, jobs, k, load, over uint8) {
		sh := domShape{seed: seed, nodes: int(nodes), jobs: int(jobs), k: int(k), load: int(load), over: int(over)}
		checkDominatedRows(t, sh.clamp(), &domStats{})
	})
}

// growStats is what the appends of a growth run exercised.
type growStats struct {
	appends, fresh, offDominator, relinked, restored, twins, zeroCap int
}

// checkDominatedRowsUnderGrowth is the property of a master kept closed as it
// grows. It builds the stage-1 master of a shape's instance closed, over
// every job's first path, and appends up to 24 more — the rest of each job's
// path set and its 8 shortest paths — one at a time in a seeded order; cells
// of the first six are overridden to capacity 0 first. After every append:
//
//   - The layout keeps the invariant, by brute force: a loaded cell has a row
//     or links to a cell that holds every column loading it at no larger
//     capacity, and the links from it reach a row within as many steps as
//     there are cells — no cycle. Nothing else has a row or a link.
//   - The master's warm re-solve from Basis.Extend has the optimum of the
//     all-rows model over the same columns, solved cold, within 1e-9.
//   - Its optimum passes Assignment.VerifyCapacity, which walks every (edge,
//     slice), with a row or without.
func checkDominatedRowsUnderGrowth(t testing.TB, sh domShape, st *growStats) {
	t.Helper()
	full := domInstance(t, sh)
	name := fmt.Sprintf("%+v", sh)
	opts := partialDantzigOpts()
	opts.CaptureBasis = true
	rng := rand.New(rand.NewSource(sh.seed + 7))
	solve := func(m *lp.Model, o lp.Options) *lp.Solution {
		t.Helper()
		sol, err := m.SolveWith(o)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s: %s: %v, %v", name, m.Name(), sol, err)
		}
		return sol
	}

	// What to append: the rest of each job's set and its 8 shortest paths,
	// in a seeded order.
	type add struct {
		k int
		p paths.Path
	}
	var adds []add
	for k, jb := range full.Jobs {
		seen := map[string]bool{full.JobPaths[k][0].Key(): true}
		for _, p := range slices.Concat(full.JobPaths[k][1:], paths.KShortestAvoiding(full.G, jb.Src, jb.Dst, 8, paths.UnitCost, nil)) {
			if !seen[p.Key()] {
				seen[p.Key()] = true
				adds = append(adds, add{k, p})
			}
		}
	}
	rng.Shuffle(len(adds), func(a, b int) { adds[a], adds[b] = adds[b], adds[a] })
	if len(adds) > 24 {
		adds = adds[:24]
	}
	inst := permuted(full, identityPerm(full.NumJobs()))
	for k := range inst.JobPaths {
		inst.JobPaths[k] = inst.JobPaths[k][:1:1]
	}
	for i := 0; i < len(adds) && i < 6; i++ {
		e := adds[i].p.Edges[rng.Intn(len(adds[i].p.Edges))]
		first, last := inst.Window(adds[i].k)
		if err := inst.SetCapacity(e, first+rng.Intn(last-first+1), 0); err != nil {
			t.Fatal(err)
		}
	}

	cells := newCapCells(inst)
	m, z, xv, _, err := buildStage1Model("stage1-grown", inst, cells)
	if err != nil {
		t.Fatal(err)
	}
	ms := &cgMaster{inst: inst, m: m, xv: xv, cells: cells}
	sol := solve(m, opts)
	nE := inst.G.NumEdges()
	for _, a := range adds {
		// Each cell the path loads without its dominator is either linked
		// to another of its cells or given its row back.
		first, last := inst.Window(a.k)
		off, restored := 0, cells.restored
		for j := first; j <= last; j++ {
			for _, e := range a.p.Edges {
				s := cells.row[j*nE+int(e)]
				switch {
				case s == 0:
					st.fresh++
				case s < 0 && !slices.Contains(a.p.Edges, netgraph.EdgeID(-s-1)):
					off++
				}
				if inst.Capacity(e, j) == 0 {
					st.zeroCap++
				}
			}
		}
		nv, nr, err := ms.appendPath(a.k, a.p)
		if err != nil {
			t.Fatal(err)
		}
		st.appends++
		st.offDominator += off
		st.restored += cells.restored - restored
		st.relinked += off - (cells.restored - restored)
		checkGrowthInvariant(t, name, ms, st)

		o := opts
		o.WarmStart = sol.Basis.Extend(nv, nr)
		sol = solve(m, o)
		mAll, zAll, _, _, err := buildStage1Model("stage1-all-rows", inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sol.Value(z), solve(mAll, partialDantzigOpts()).Value(zAll); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: after %d appends the grown master has Z* = %.12g, the all-rows model %.12g", name, st.appends, got, want)
		}
		if err := extractAssignment(inst, ms.xv, sol).VerifyCapacity(1e-6); err != nil {
			t.Fatalf("%s: after %d appends: %v", name, st.appends, err)
		}
	}
}

// checkGrowthInvariant holds a master's layout to the invariant, reading the
// columns that load each cell off the master's own variable map.
func checkGrowthInvariant(t testing.TB, name string, ms *cgMaster, st *growStats) {
	t.Helper()
	inst, cells := ms.inst, ms.cells
	nE, ns := inst.G.NumEdges(), inst.Grid.Num()
	vars := make([]map[lp.VarID]bool, ns*nE)
	for k := range ms.xv {
		for p := range ms.xv[k] {
			for j, v := range ms.xv[k][p] {
				if v < 0 {
					continue
				}
				for _, e := range inst.JobPaths[k][p].Edges {
					if vars[j*nE+int(e)] == nil {
						vars[j*nE+int(e)] = map[lp.VarID]bool{}
					}
					vars[j*nE+int(e)][v] = true
				}
			}
		}
	}
	rows, dropped := 0, 0
	for c, s := range cells.row {
		e, j := netgraph.EdgeID(c%nE), c/nE
		switch {
		case (vars[c] == nil) != (s == 0):
			t.Fatalf("%s: cell (%d, %d) is loaded by %d columns and laid out as %d", name, e, j, len(vars[c]), s)
		case s > 0:
			rows++
			if cells.kept[s-1] != (capKey{e, j}) {
				t.Fatalf("%s: cell (%d, %d) names row %d, which is cell %+v's", name, e, j, s-1, cells.kept[s-1])
			}
		case s < 0:
			dropped++
			b := j*nE + int(-s-1)
			for v := range vars[c] {
				if !vars[b][v] {
					t.Fatalf("%s: cell (%d, %d) links to (%d, %d), which column %d loads only the first of", name, e, j, -s-1, j, v)
				}
			}
			if capA, capB := inst.Capacity(e, j), inst.Capacity(netgraph.EdgeID(-s-1), j); capB > capA {
				t.Fatalf("%s: cell (%d, %d) of capacity %d links to (%d, %d) of capacity %d", name, e, j, capA, -s-1, j, capB)
			} else if capB == capA && len(vars[b]) == len(vars[c]) {
				st.twins++
			}
			for steps := 0; cells.row[b] < 0; steps++ {
				if steps == len(cells.row) {
					t.Fatalf("%s: the links from cell (%d, %d) go round in a cycle", name, e, j)
				}
				b = j*nE + int(-cells.row[b]-1)
			}
		}
	}
	if rows != len(cells.kept) || dropped != cells.dropped {
		t.Fatalf("%s: %d cells with a row and %d without; the layout counts %d and %d", name, rows, dropped, len(cells.kept), cells.dropped)
	}
	if want := inst.NumJobs() + rows; ms.m.NumRows() != want {
		t.Fatalf("%s: the master has %d rows, want %d job rows + %d capacity rows", name, ms.m.NumRows(), inst.NumJobs(), rows)
	}
}

// TestDominatedRowsUnderGrowth runs checkDominatedRowsUnderGrowth over the
// seeded shapes of TestDominatedRowsProperty, and requires that they
// exercise every case of the layout rule: cells an append is the first to
// load, cells it loads without their dominator that are linked elsewhere or
// get their row back, links between twins, and cells of capacity 0.
func TestDominatedRowsUnderGrowth(t *testing.T) {
	var st growStats
	for seed := int64(1); seed <= 64; seed++ {
		checkDominatedRowsUnderGrowth(t, domSeedShape(seed), &st)
	}
	t.Logf("%+v", st)
	for _, c := range []struct {
		what    string
		n, want int
	}{
		{"appends", st.appends, 500}, {"cells first loaded", st.fresh, 1000},
		{"cells loaded without their dominator", st.offDominator, 500},
		{"of those linked to another cell", st.relinked, 100}, {"of those given their row back", st.restored, 200},
		{"links between twins", st.twins, 1000}, {"cells of capacity 0 loaded", st.zeroCap, 100},
	} {
		if c.n < c.want {
			t.Errorf("only %d %s, want %d: the generator no longer exercises the layout rule", c.n, c.what, c.want)
		}
	}
}

// FuzzDominatedRowsUnderGrowth is the growth arm of FuzzDominatedRows: the
// same shapes, the property of a master kept closed as it grows.
func FuzzDominatedRowsUnderGrowth(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		sh := domSeedShape(seed)
		f.Add(sh.seed, uint8(sh.nodes), uint8(sh.jobs), uint8(sh.k), uint8(sh.load), uint8(sh.over))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, jobs, k, load, over uint8) {
		sh := domShape{seed: seed, nodes: int(nodes), jobs: int(jobs), k: int(k), load: int(load), over: int(over)}
		checkDominatedRowsUnderGrowth(t, sh.clamp(), &growStats{})
	})
}

// TestClosedCellsFollowGrownPool: the closed layout an instance caches is the
// layout of the paths it has now. After GeneratePaths grew the pool,
// closedCells is newCapCells of the grown pool and a closed cold stage-2
// solve over it has the all-rows plan; a layout cached before a master
// appends a path to the instance is not served after.
func TestClosedCellsFollowGrownPool(t *testing.T) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 12, LinkPairs: 20, Wavelengths: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{Jobs: 8, Seed: 503, GBToDemand: 0.25, MinWindow: 2, MaxWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstanceOpts(g, mustGrid(t, 5), jobs, InstanceOptions{ColumnGen: true})
	if err != nil {
		t.Fatal(err)
	}
	inst.closedCells() // the seeds' layout
	st, err := GeneratePaths(inst, ColGenConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if st.AddedPaths == 0 {
		t.Fatal("pricing added no path: the pool did not grow")
	}
	if !reflect.DeepEqual(inst.closedCells(), newCapCells(inst)) {
		t.Fatal("after GeneratePaths the instance serves the closed layout of another pool")
	}
	plan := func(cells *capCells) *Assignment {
		t.Helper()
		m, _, xv, _, err := buildStage2Model(inst, st.ZStar, lexAlpha, nil, cells)
		if err != nil {
			t.Fatal(err)
		}
		o := solverOpts()
		o.Secondary = stage2Secondary(inst, m, xv)
		sol, err := m.SolveWith(o)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s: %v, %v", m.Name(), sol, err)
		}
		return extractAssignment(inst, xv, sol)
	}
	want, got := plan(nil), plan(inst.closedCells())
	for k := range want.X {
		for p := range want.X[k] {
			for j, w := range want.X[k][p] {
				if d := math.Abs(got.X[k][p][j] - w); d > 1e-7 {
					t.Fatalf("x[job %d][%d][%d] = %.10g closed, %.10g with every row", inst.Jobs[k].ID, p, j, got.X[k][p][j], w)
				}
			}
		}
	}

	// A master appends to the very instance it prices.
	var add paths.Path
	for _, p := range paths.KShortestAvoiding(g, jobs[0].Src, jobs[0].Dst, 8, paths.UnitCost, nil) {
		if !slices.ContainsFunc(inst.JobPaths[0], func(q paths.Path) bool { return q.Key() == p.Key() }) {
			add = p
			break
		}
	}
	if add.Edges == nil {
		t.Fatal("job 0 has every one of its 8 shortest paths")
	}
	cells := newCapCells(inst)
	m, _, xv, _, err := buildStage1Model("colgen-stage1", inst, cells)
	if err != nil {
		t.Fatal(err)
	}
	inst.closedCells()
	ms := &cgMaster{inst: inst, m: m, xv: xv, cells: cells}
	if _, _, err := ms.appendPath(0, add); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inst.closedCells(), newCapCells(inst)) {
		t.Fatal("after appendPath the instance serves the closed layout of the pool before it")
	}
}
