package schedule

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

// readCounter reads a counter off the default telemetry registry.
func readCounter(t testing.TB, name string) int64 {
	t.Helper()
	return telemetry.Default().Counter(name, "").Value()
}

// pathCacheCounts reads the path-cache hit, miss and eviction counters off
// the default telemetry registry; tests compare differences.
func pathCacheCounts(t testing.TB) (hits, misses, evictions int64) {
	t.Helper()
	return readCounter(t, "schedule_pathcache_hits_total"),
		readCounter(t, "schedule_pathcache_misses_total"),
		readCounter(t, "schedule_pathcache_evictions_total")
}

// mustGrid builds a unit-slice grid of n slices.
func mustGrid(t testing.TB, n int) *timeslice.Grid {
	t.Helper()
	grid, err := timeslice.Uniform(0, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// assignmentBytes renders every flow value exactly, so two assignments
// compare byte-identical iff every float64 is bit-identical.
func assignmentBytes(a *Assignment) string {
	if a == nil {
		return "<nil>"
	}
	s := ""
	for k := range a.X {
		for p := range a.X[k] {
			for j, v := range a.X[k][p] {
				if v != 0 {
					s += fmt.Sprintf("%d/%d/%d=%b\n", k, p, j, v)
				}
			}
		}
	}
	return s
}

// retWarmInstance builds an overloaded multi-job instance whose RET search
// needs a real binary search (b̂ > 0).
func retWarmInstance(t testing.TB) *Instance {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 12, LinkPairs: 24, Wavelengths: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 8, Seed: 4, GBToDemand: 0.9, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestSolveRETWarmByteIdentical: on a one-block instance that needs a
// real binary search, SolveRET finds the per-probe oracle's b̂ bit for bit.
func TestSolveRETWarmByteIdentical(t *testing.T) {
	inst := retWarmInstance(t)
	for _, o := range retIdentityOpts {
		cfg := RETConfig{Solver: o.opts}
		res, err := SolveRET(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.BHat == 0 {
			t.Fatal("test instance not overloaded: b̂ = 0 exercises no search")
		}
		checkRETAgainstOracle(t, o.name, inst, cfg, res)
	}
}

// TestRETProbeChainIsAFork pins what lets the prober skip building its own
// SUB-RET model: its chain is a fork of the extraction chain — the same rows
// under bounds, applied windows, a basis and solver buffers of its own — so
// probe traffic on it leaves the extraction chain answering, pivot for pivot
// and byte for byte, like a chain nobody forked; and a fork taken after the
// extraction chain has moved starts from the windows that chain has applied.
func TestRETProbeChainIsAFork(t *testing.T) {
	inst := retWarmInstance(t)
	cfg := RETConfig{Solver: solverOpts()}.withDefaults()
	E, err := newRETChain(inst, "sub-ret", cfg)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := newRETChain(inst, "sub-ret", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []*retChain{E, lone} {
		if feasible, _, _, ok, err := ch.solveAt(inst, cfg.BMax); err != nil || !ok || !feasible {
			t.Fatalf("ceiling solve: feasible %v, ok %v, err %v", feasible, ok, err)
		}
	}

	// The prober alone traces its solves, so its lp.solve spans name the
	// fork's model.
	var trace bytes.Buffer
	pcfg := cfg
	pcfg.Solver.Tracer = telemetry.NewTracer(&trace)
	P := newRETProber(E, pcfg)
	P.seedFrom(E)
	ch := P.ensureChain()
	if ch.m == E.m || ch.inc == E.inc || ch.m.NumRows() != E.m.NumRows() {
		t.Fatalf("probe chain: model of %d rows on the extraction chain's of %d rows", ch.m.NumRows(), E.m.NumRows())
	}
	verdicts := 0
	for _, b := range []float64{0.5, 4, 1.25, 0.1} {
		feasible, _, ok, err := P.solve(inst, b)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			verdicts++
			want, _, _, err := solveSubRET(inst, b, cfg, false)
			if err != nil || feasible != want {
				t.Fatalf("b=%g: the probe chain says feasible=%v, a cold per-b model %v (err %v)", b, feasible, want, err)
			}
		}
	}
	if verdicts == 0 {
		t.Fatal("the probe chain gave no verdict")
	}
	if err := pcfg.Solver.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"model":"sub-ret-probe"`) {
		t.Fatalf("the probe chain's solves are not traced as model sub-ret-probe:\n%s", trace.String())
	}
	for k, last := range E.curLast {
		if last != E.maxLast[k] {
			t.Fatalf("job %d: probing moved the extraction chain's window to %d (BMax: %d)", k, last, E.maxLast[k])
		}
	}
	for _, b := range []float64{2, 0.75} {
		f1, a1, it1, err1 := E.extractAt(inst, b)
		f2, a2, it2, err2 := lone.extractAt(inst, b)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if f1 != f2 || it1 != it2 || (f1 && assignmentBytes(a1) != assignmentBytes(a2)) {
			t.Fatalf("b=%g: the forked-from chain extracts feasible=%v in %d pivots, an unforked one feasible=%v in %d (or other bytes)", b, f1, it1, f2, it2)
		}
	}

	// E now stands at b = 0.75: a fork taken here flips bounds from there.
	late := newRETProber(E, cfg).ensureChain()
	for k := range E.curLast {
		if late.curLast[k] != E.curLast[k] {
			t.Fatalf("job %d: late fork starts at window %d, the chain it forked stands at %d", k, late.curLast[k], E.curLast[k])
		}
	}
	late.curLast[0]++ // its own copy
	if late.curLast[0] == E.curLast[0] {
		t.Fatal("the fork shares the applied-window vector")
	}
	late.curLast[0]--
	got, _, _, ok, err := late.solveAt(inst, 5)
	want, _, _, err2 := solveSubRET(inst, 5, cfg, false)
	if err != nil || err2 != nil || !ok || got != want {
		t.Fatalf("late fork at b=5: feasible=%v (ok %v, err %v), a cold per-b model %v (err %v)", got, ok, err, want, err2)
	}
}

// TestStage2WarmAlphaLadder forces the Remark-1 retry ladder — stage 2
// over a degraded topology with the healthy topology's Z*, so the fairness
// floor overcommits the network — and checks where the ladder stops.
func TestStage2WarmAlphaLadder(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4}}
	grid := mustGrid(t, 4)
	healthy, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := SolveStage1(healthy, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s1.ZStar < 0.99 {
		t.Fatalf("Z* = %g, want ≈ 1 so the stale floor overcommits the degraded net", s1.ZStar)
	}

	// Degrade every edge to one wavelength: deliverable halves, so the
	// floor (1-α)·Z*·D is infeasible until α reaches ≈ 0.5.
	degraded, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		for j := 0; j < grid.Num(); j++ {
			if err := degraded.SetCapacity(e.ID, j, 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	retries0 := readCounter(t, "schedule_stage2_alpha_retries_total")
	res, err := MaxThroughputWithZ(degraded, s1, Config{Alpha: 0.05, AlphaGrowth: 0.05, Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if readCounter(t, "schedule_stage2_alpha_retries_total")-retries0 == 0 {
		t.Fatal("instance did not force the α ladder; test is vacuous")
	}
	// The floor (1-α)·Z* first fits the halved net at the tenth rung, and
	// the ladder accumulates α by repeated addition.
	want := 0.05
	for i := 1; i < 10; i++ {
		want += 0.05
	}
	if res.Alpha != want {
		t.Errorf("ladder stopped at α = %v, want %v", res.Alpha, want)
	}
	if err := res.LPDAR.VerifyCapacity(1e-9); err != nil {
		t.Error(err)
	}
}

// TestPathCacheAcrossMaskedFailures checks the satellite bugfix: building
// instances against residual topologies with the same failed link hits
// the cache instead of recomputing path sets.
func TestPathCacheAcrossMaskedFailures(t *testing.T) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 10, LinkPairs: 20, Wavelengths: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 6, Seed: 10, GBToDemand: 0.2, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := mustGrid(t, 4)
	pc := NewPathCache()
	opts := InstanceOptions{K: 4, PathCache: pc}
	h0, m0, _ := pathCacheCounts(t)
	stats := func() (hits, misses int64) {
		h, m, _ := pathCacheCounts(t)
		return h - h0, m - m0
	}

	base, err := NewInstanceOpts(g, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, misses0 := stats()
	if misses0 == 0 {
		t.Fatal("first build should miss the cache")
	}

	// Same topology again: all hits, no new misses.
	again, err := NewInstanceOpts(g, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := stats()
	if misses1 != misses0 || hits1 == 0 {
		t.Fatalf("rebuild on unchanged topology: hits=%d misses=%d (want 0 new misses)", hits1, misses1)
	}
	for k := range base.JobPaths {
		if len(base.JobPaths[k]) != len(again.JobPaths[k]) {
			t.Fatalf("cached path set differs for job %d", k)
		}
	}

	// Fail a link that some path uses: new key, so misses grow.
	down := base.JobPaths[0][0].Edges[0]
	resid, err := g.WithLinksDown(down)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstanceOpts(resid, grid, jobs, opts); err != nil {
		t.Fatal(err)
	}
	_, misses2 := stats()
	if misses2 == misses1 {
		t.Fatal("masked topology reused unmasked path sets")
	}

	// The same failure again: fully cached.
	if _, err := NewInstanceOpts(resid, grid, jobs, opts); err != nil {
		t.Fatal(err)
	}
	if _, misses3 := stats(); misses3 != misses2 {
		t.Fatalf("repeated masking of the same failure missed the cache (misses %d -> %d)", misses2, misses3)
	}

	// Cached residual paths must equal freshly-computed ones.
	fresh, err := NewInstanceOpts(resid, grid, jobs, InstanceOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewInstanceOpts(resid, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range fresh.JobPaths {
		if len(fresh.JobPaths[k]) != len(cached.JobPaths[k]) {
			t.Fatalf("job %d: cached %d paths, fresh %d", k, len(cached.JobPaths[k]), len(fresh.JobPaths[k]))
		}
		for p := range fresh.JobPaths[k] {
			fe, ce := fresh.JobPaths[k][p].Edges, cached.JobPaths[k][p].Edges
			if len(fe) != len(ce) {
				t.Fatalf("job %d path %d: edge count differs", k, p)
			}
			for i := range fe {
				if fe[i] != ce[i] {
					t.Fatalf("job %d path %d edge %d differs", k, p, i)
				}
			}
		}
	}
}
