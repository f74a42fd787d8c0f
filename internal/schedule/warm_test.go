package schedule

import (
	"fmt"
	"reflect"
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

// TestSolveRETWarmByteIdentical is the tentpole's determinism gate: a
// warm-started RET run must return bit-for-bit the same schedules, b
// values, and round count as the cold run.
func TestSolveRETWarmByteIdentical(t *testing.T) {
	inst := retWarmInstance(t)
	cold, err := SolveRET(inst, RETConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveRET(inst, RETConfig{Solver: solverOpts(), WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.BHat == 0 {
		t.Fatal("test instance not overloaded: b̂ = 0 exercises no search")
	}
	if cold.BHat != warm.BHat || cold.B != warm.B || cold.Rounds != warm.Rounds {
		t.Fatalf("search outcome differs: cold (b̂=%v b=%v rounds=%d) warm (b̂=%v b=%v rounds=%d)",
			cold.BHat, cold.B, cold.Rounds, warm.BHat, warm.B, warm.Rounds)
	}
	for _, pair := range []struct {
		name       string
		cold, warm *Assignment
	}{
		{"LP", cold.LP, warm.LP},
		{"LPD", cold.LPD, warm.LPD},
		{"LPDAR", cold.LPDAR, warm.LPDAR},
	} {
		if cb, wb := assignmentBytes(pair.cold), assignmentBytes(pair.warm); cb != wb {
			t.Errorf("%s assignment differs between warm and cold runs", pair.name)
		}
	}
	if len(warm.ProbeBases) != 1 {
		t.Errorf("warm run of a one-block instance handed back %d probe bases", len(warm.ProbeBases))
	}
	if warm.LPIters >= cold.LPIters {
		t.Logf("warm pivots %d not below cold %d (speedup comes from skipped phase 1; not fatal)",
			warm.LPIters, cold.LPIters)
	}

	// A second warm run seeded with the previous probe basis must agree too.
	warm2, err := SolveRET(inst, RETConfig{Solver: solverOpts(), WarmStart: true, WarmComponents: warm.ProbeBases})
	if err != nil {
		t.Fatal(err)
	}
	if warm2.BHat != cold.BHat || assignmentBytes(warm2.LPDAR) != assignmentBytes(cold.LPDAR) {
		t.Error("basis-seeded warm run diverged from cold")
	}
}

// TestCarryDeclinesForeignPathsKey: carried warm state is taken up only
// under the path-set fingerprint it was captured with. An entry with an
// empty or a foreign PathsKey — a basis and certificates over other columns —
// is declined outright: the search starts cold, probe for probe the search of
// a solve that was handed nothing, and ends on the same b̂ and bytes.
func TestCarryDeclinesForeignPathsKey(t *testing.T) {
	inst := retWarmInstance(t)
	cfg := RETConfig{Solver: solverOpts(), WarmStart: true, Certificates: true}
	first, err := SolveRET(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trajectory := func(res *RETResult) []ProbeStep {
		steps := append([]ProbeStep(nil), res.Probes...)
		for i := range steps {
			steps[i].DurUS = 0
		}
		return steps
	}
	with := func(pathsKey func(string) string) *RETResult {
		t.Helper()
		cfg := cfg
		cfg.WarmComponents = make(map[string]*ComponentBasis)
		for key, cb := range first.ProbeBases {
			c := *cb
			c.PathsKey = pathsKey(cb.PathsKey)
			cfg.WarmComponents[key] = &c
		}
		res, err := SolveRET(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.BHat != first.BHat || res.B != first.B || assignmentBytes(res.LPDAR) != assignmentBytes(first.LPDAR) {
			t.Fatal("carried state moved the outcome")
		}
		return res
	}
	if kept := with(func(k string) string { return k }); reflect.DeepEqual(trajectory(kept), trajectory(first)) {
		t.Fatal("a matching entry left the search as cold as none: the carry is never taken up, so declining it proves nothing")
	}
	for name, key := range map[string]string{"empty": "", "foreign": "not-these-paths"} {
		if got := with(func(string) string { return key }); !reflect.DeepEqual(trajectory(got), trajectory(first)) {
			t.Errorf("%s PathsKey: the entry was used:\n got %+v\nwant %+v", name, trajectory(got), trajectory(first))
		}
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
	cfg := RETConfig{Solver: solverOpts(), WarmStart: true, Certificates: true}.withDefaults()
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

	P := newRETProber(E, cfg, nil)
	P.seedFrom(E)
	ch := P.ensureChain()
	if ch.m == E.m || ch.inc == E.inc || ch.m.Name() != "sub-ret-probe" || ch.m.NumRows() != E.m.NumRows() {
		t.Fatalf("probe chain: model %q (%d rows) on the extraction chain's %q (%d rows)", ch.m.Name(), ch.m.NumRows(), E.m.Name(), E.m.NumRows())
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
	late := newRETProber(E, cfg, nil).ensureChain()
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
// re-planned against a degraded topology with the healthy topology's Z*,
// the controller's degraded-mode situation — and checks the warm path
// lands on the same α and byte-identical schedules as the cold ladder.
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
	degraded := func() *Instance {
		in, err := NewInstance(g, grid, jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			for j := 0; j < grid.Num(); j++ {
				if err := in.SetCapacity(e.ID, j, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		return in
	}

	retries0 := readCounter(t, "schedule_stage2_alpha_retries_total")
	cfg := Config{Alpha: 0.05, AlphaGrowth: 0.05, Solver: solverOpts()}
	cold, err := MaxThroughputWithZ(degraded(), s1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldRetries := readCounter(t, "schedule_stage2_alpha_retries_total") - retries0
	if coldRetries == 0 {
		t.Fatal("instance did not force the α ladder; test is vacuous")
	}
	wcfg := cfg
	wcfg.WarmStart = true
	warm, err := MaxThroughputWithZ(degraded(), s1, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Alpha != warm.Alpha {
		t.Fatalf("alpha differs: cold=%v warm=%v", cold.Alpha, warm.Alpha)
	}
	if assignmentBytes(cold.LP) != assignmentBytes(warm.LP) ||
		assignmentBytes(cold.LPDAR) != assignmentBytes(warm.LPDAR) {
		t.Error("stage-2 schedules differ between warm and cold")
	}
}

// TestStage2WarmNoRetrySameResult: on a feasible instance the warm flag
// must be a no-op (single solve, identical output).
func TestStage2WarmNoRetrySameResult(t *testing.T) {
	inst := retWarmInstance(t)
	cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: solverOpts()}
	cold, err := MaxThroughput(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := cfg
	wcfg.WarmStart = true
	warm, err := MaxThroughput(inst, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Alpha != warm.Alpha || assignmentBytes(cold.LPDAR) != assignmentBytes(warm.LPDAR) {
		t.Error("warm flag changed the no-retry result")
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

	base, err := NewInstanceOpts(g, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, misses0 := pc.Stats()
	if misses0 == 0 {
		t.Fatal("first build should miss the cache")
	}

	// Same topology again: all hits, no new misses.
	again, err := NewInstanceOpts(g, grid, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := pc.Stats()
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
	_, misses2 := pc.Stats()
	if misses2 == misses1 {
		t.Fatal("masked topology reused unmasked path sets")
	}

	// The same failure again: fully cached.
	if _, err := NewInstanceOpts(resid, grid, jobs, opts); err != nil {
		t.Fatal(err)
	}
	if _, misses3 := pc.Stats(); misses3 != misses2 {
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
