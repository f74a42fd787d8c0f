package schedule

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/telemetry"
	"wavesched/internal/workload"
)

// ringGraphJobs builds a bidirected n-ring (1 wavelength per direction)
// with jobs between non-antipodal pairs, so every (src, dst) has exactly
// two simple paths of distinct cost and both Yen enumeration and the
// edge-disjoint seeder return them in the same (cost-ascending) order.
func ringGraphJobs(t testing.TB, n int) (*netgraph.Graph, []job.Job) {
	t.Helper()
	g := netgraph.New("ring")
	for i := 0; i < n; i++ {
		g.AddNode("", float64(i), 0)
	}
	for i := 0; i < n; i++ {
		if err := g.AddPair(netgraph.NodeID(i), netgraph.NodeID((i+1)%n), 1, 10); err != nil {
			t.Fatal(err)
		}
	}
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 2, Size: 3, Start: 0, End: 4},
		{ID: 2, Src: 1, Dst: 4, Size: 2, Start: 0, End: 4},
		{ID: 3, Src: 5, Dst: 1, Size: 2, Start: 0, End: 3},
	}
	return g, jobs
}

// thetaGraphJob builds three parallel 2-hop routes of one wavelength each
// between a single (src, dst) pair — the seed set (2 edge-disjoint paths)
// provably misses a route the optimum needs, so pricing must discover it.
func thetaGraphJob(t testing.TB) (*netgraph.Graph, []job.Job) {
	t.Helper()
	g := netgraph.New("theta")
	s := g.AddNode("s", 0, 0)
	d := g.AddNode("d", 2, 0)
	for i := 0; i < 3; i++ {
		mid := g.AddNode("", 1, float64(i))
		if err := g.AddPair(s, mid, 1, 10); err != nil {
			t.Fatal(err)
		}
		if err := g.AddPair(mid, d, 1, 10); err != nil {
			t.Fatal(err)
		}
	}
	return g, []job.Job{{ID: 1, Src: s, Dst: d, Size: 6, Start: 0, End: 4}}
}

// TestColGenByteIdenticalOnRing: when the seed set equals the full
// enumeration (a ring has exactly two simple paths per pair), the colgen
// instance and the enumerated one pose the same LPs. Under the shipped solver
// options they agree on Z*, α and the stage-2 optimum to 1e-9, and on the
// plan: colgen reads it from the priced master — every capacity row, warm
// through pricing — and enumeration from a cold solve of the closed model,
// and both end with the lexicographic phase, so they are the LP's one
// canonical vertex: equal within 1e-7 and byte-identical once integerized.
func TestColGenByteIdenticalOnRing(t *testing.T) {
	g, jobs := ringGraphJobs(t, 6)
	grid := mustGrid(t, 4)
	opts := partialDantzigOpts()
	enum, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{ColumnGen: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := GeneratePaths(cg, ColGenConfig{Solver: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MasterPlan {
		t.Fatalf("the priced master left no plan: %+v", stats)
	}
	for k := range enum.JobPaths {
		if len(enum.JobPaths[k]) != len(cg.JobPaths[k]) {
			t.Fatalf("job %d: enum has %d paths, colgen %d (stats %+v)",
				k, len(enum.JobPaths[k]), len(cg.JobPaths[k]), stats)
		}
		for p := range enum.JobPaths[k] {
			if enum.JobPaths[k][p].Key() != cg.JobPaths[k][p].Key() {
				t.Fatalf("job %d path %d differs: %s vs %s",
					k, p, enum.JobPaths[k][p].Key(), cg.JobPaths[k][p].Key())
			}
		}
	}
	re, err := MaxThroughput(enum, Config{Solver: opts})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := MaxThroughput(cg, Config{Solver: opts})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Plan != PlanMaster || re.Plan != PlanCold {
		t.Fatalf("plan sources: colgen %q, enumeration %q", rc.Plan, re.Plan)
	}
	if math.Abs(re.ZStar-rc.ZStar) > 1e-9 || re.Alpha != rc.Alpha {
		t.Fatalf("Z*/alpha differ: enum (%v, %v) colgen (%v, %v)", re.ZStar, re.Alpha, rc.ZStar, rc.Alpha)
	}
	if eo, co := re.LP.WeightedThroughput(), rc.LP.WeightedThroughput(); math.Abs(eo-co) > 1e-9 {
		t.Fatalf("stage-2 optimum differs: enum %v colgen %v", eo, co)
	}
	assertAssignmentsClose(t, 0, "LP", re.LP, rc.LP, 1e-7)
	if assignmentBytes(re.LPD) != assignmentBytes(rc.LPD) {
		t.Error("LPD schedule differs between enumeration and colgen")
	}
	if assignmentBytes(re.LPDAR) != assignmentBytes(rc.LPDAR) {
		t.Error("LPDAR schedule differs between enumeration and colgen")
	}
}

// TestColGenDiscoversBeyondSeeds: the theta instance's optimum needs all
// three parallel routes but the seed set holds two — the pricing oracle
// must discover the third and close the Z* gap to enumeration exactly.
func TestColGenDiscoversBeyondSeeds(t *testing.T) {
	g, jobs := thetaGraphJob(t)
	grid := mustGrid(t, 4)
	enum, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.JobPaths[0]) != 3 {
		t.Fatalf("enumeration found %d paths, want 3", len(enum.JobPaths[0]))
	}
	cg, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{ColumnGen: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cg.JobPaths[0]) != 2 {
		t.Fatalf("seed set has %d paths, want 2", len(cg.JobPaths[0]))
	}
	seedS1, err := SolveStage1(cg, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := GeneratePaths(cg, ColGenConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AddedPaths == 0 || len(cg.JobPaths[0]) != 3 {
		t.Fatalf("pricing did not discover the third route: %d paths, stats %+v", len(cg.JobPaths[0]), stats)
	}
	enumS1, err := SolveStage1(enum, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	cgS1, err := SolveStage1(cg, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if seedS1.ZStar >= enumS1.ZStar-1e-9 {
		t.Fatalf("seed Z* %v does not trail enumeration Z* %v — test exercises nothing", seedS1.ZStar, enumS1.ZStar)
	}
	if math.Abs(cgS1.ZStar-enumS1.ZStar) > 1e-9 {
		t.Fatalf("colgen Z* %v != enumeration Z* %v", cgS1.ZStar, enumS1.ZStar)
	}
}

// TestColGenRandomParity: across random Waxman instances, the grown path
// set's Z* must match full K=8 enumeration to 1e-9 — column generation
// optimizes over the whole path space, so it can never trail, and on
// these instances K=8 captures the optimum, so it cannot lead either
// without a pricing bug (an over-attractive column would overshoot).
func TestColGenRandomParity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{
			Nodes: 14, LinkPairs: 28, Wavelengths: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := workload.Generate(g, workload.Config{
			Jobs: 8, Seed: seed + 100, GBToDemand: 0.6, MinWindow: 2, MaxWindow: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		grid := mustGrid(t, 8)
		enum, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{K: 8})
		if err != nil {
			t.Fatal(err)
		}
		cg, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{ColumnGen: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := GeneratePaths(cg, ColGenConfig{Solver: solverOpts()}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		es, err := SolveStage1(enum, solverOpts())
		if err != nil {
			t.Fatal(err)
		}
		cs, err := SolveStage1(cg, solverOpts())
		if err != nil {
			t.Fatal(err)
		}
		if cs.ZStar < es.ZStar-1e-9 {
			t.Fatalf("seed %d: colgen Z* %v trails enumeration Z* %v", seed, cs.ZStar, es.ZStar)
		}
		if cs.ZStar > es.ZStar+1e-6 {
			t.Logf("seed %d: colgen Z* %v exceeds K=8 enumeration Z* %v (found a path outside the top 8)",
				seed, cs.ZStar, es.ZStar)
		}
	}
}

// TestColGenWarmColdMonoDecomposedIdentity: on a colgen-grown
// multi-component instance, the repo's standing identity invariants must
// keep holding with appended columns in the path sets — serial vs
// parallel decomposed solves return bit-identical schedules under the
// shipped solver options, and monolithic vs decomposed agree to
// LP tolerance (their stage-1 models are structurally different, so Z*
// matches to tolerance, not bits).
func TestColGenWarmColdMonoDecomposedIdentity(t *testing.T) {
	g, jobs := clusteredGraphJobs(t, 2, 6, 4, 7)
	grid := mustGrid(t, 8)
	cg, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{ColumnGen: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeneratePaths(cg, ColGenConfig{Solver: partialDantzigOpts()}); err != nil {
		t.Fatal(err)
	}
	coldMono, err := MaxThroughput(cg, Config{Solver: partialDantzigOpts(), Monolithic: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := MaxThroughput(cg, Config{Solver: partialDantzigOpts(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MaxThroughput(cg, Config{Solver: partialDantzigOpts(), Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Components < 2 {
		t.Fatalf("instance did not decompose (%d components) — test exercises nothing", serial.Components)
	}
	if serial.ZStar != par.ZStar || assignmentBytes(serial.LPDAR) != assignmentBytes(par.LPDAR) {
		t.Error("parallel decomposed solve diverged from serial on the colgen-grown instance")
	}
	if math.Abs(coldMono.ZStar-serial.ZStar) > 1e-6*(1+math.Abs(coldMono.ZStar)) {
		t.Errorf("Z* differs beyond LP tolerance: mono %v decomposed %v", coldMono.ZStar, serial.ZStar)
	}
	assertAssignmentsClose(t, 7, "LPDAR", coldMono.LPDAR, serial.LPDAR, 1e-6)
}

// TestColGenWithRETPricing: GeneratePaths with a RET config prices the
// SUB-RET master too — under that config's solver options, so from the
// all-artificial start the search's own solves keep, while the stage-1 and
// stage-2 masters start on the slacks — and the subsequent SolveRET finds
// the per-probe oracle's b̂ on the grown instance.
func TestColGenWithRETPricing(t *testing.T) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 12, LinkPairs: 24, Wavelengths: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 6, Seed: 4, GBToDemand: 0.5, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildRETInstanceOpts(g, jobs, 1, 4, 3, InstanceOptions{ColumnGen: true})
	if err != nil {
		t.Fatal(err)
	}
	retCfg := RETConfig{BMax: 3, Solver: dantzigOpts()}
	var buf bytes.Buffer
	cgOpts := dantzigOpts()
	cgOpts.Tracer = telemetry.NewTracer(&buf)
	if _, err := GeneratePaths(inst, ColGenConfig{Solver: cgOpts, RET: &retCfg}); err != nil {
		t.Fatal(err)
	}
	if err := cgOpts.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	stageOf, crashes := map[int64]string{}, map[string]map[string]int{}
	recs := parseTrace(t, &buf)
	for _, r := range recs {
		if r.Name == "schedule.colgen_master" {
			var a struct{ Stage string }
			if err := json.Unmarshal(r.Attrs, &a); err != nil {
				t.Fatal(err)
			}
			stageOf[r.ID], crashes[a.Stage] = a.Stage, map[string]int{}
		}
	}
	for _, r := range recs {
		if r.Name == "lp.solve" {
			var a struct{ Crash string }
			if err := json.Unmarshal(r.Attrs, &a); err != nil {
				t.Fatal(err)
			}
			if a.Crash != "" {
				crashes[stageOf[r.Parent]][a.Crash]++
			}
		}
	}
	for stage, want := range map[string]string{"stage1": "slack", "stage2": "slack", "subret": "artificial"} {
		if got := crashes[stage]; len(got) != 1 || got[want] == 0 {
			t.Errorf("cold solves of the %s masters started as %v, want %s only", stage, got, want)
		}
	}
	for _, o := range retIdentityOpts {
		cfg := RETConfig{BMax: 3, Solver: o.opts}
		res, err := SolveRET(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkRETAgainstOracle(t, o.name+" on a colgen-grown instance", inst, cfg, res)
	}
}

// TestPathCacheLRUBound: the cache stays at its size bound, evicts least
// recently used entries first, and counts evictions.
func TestPathCacheLRUBound(t *testing.T) {
	pc := NewPathCacheSize(2)
	h0, m0, e0 := pathCacheCounts(t)
	mk := func(i int) pathCacheKey {
		return pathCacheKey{src: netgraph.NodeID(i), dst: netgraph.NodeID(i + 1), k: 4}
	}
	computes := 0
	fetch := func(i int) {
		pc.get(mk(i), func() []paths.Path {
			computes++
			return []paths.Path{{Cost: float64(i)}}
		})
	}
	fetch(0)
	fetch(1)
	fetch(0) // bump 0 to the recency front
	fetch(2) // evicts 1, the least recently used
	if len(pc.entries) != 2 {
		t.Fatalf("%d entries, want 2", len(pc.entries))
	}
	if _, _, ev := pathCacheCounts(t); ev-e0 != 1 {
		t.Fatalf("evictions = %d, want 1", ev-e0)
	}
	before := computes
	fetch(0) // still resident
	if computes != before {
		t.Fatal("entry 0 was evicted, want entry 1")
	}
	fetch(1) // evicted: recompute
	if computes != before+1 {
		t.Fatal("evicted entry 1 did not recompute")
	}
	hits, misses, ev := pathCacheCounts(t)
	if hits-h0 != 2 || misses-m0 != 4 {
		t.Fatalf("hits, misses = (%d, %d), want (2, 4)", hits-h0, misses-m0)
	}
	if ev-e0 != 2 {
		t.Fatalf("evictions = %d, want 2", ev-e0)
	}
}

// TestColGenCacheCrossEpoch: a PathCache carries the discovered path sets
// to the next instance build — the second epoch starts from the grown
// sets and pricing finds nothing left to add. Enumerated entries under
// the same cache are unaffected (distinct key space).
func TestColGenCacheCrossEpoch(t *testing.T) {
	g, jobs := thetaGraphJob(t)
	grid := mustGrid(t, 4)
	pc := NewPathCache()
	build := func() *Instance {
		inst, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{
			ColumnGen: true, PathCache: pc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	first := build()
	if len(first.JobPaths[0]) != 2 {
		t.Fatalf("first epoch seeds %d paths, want 2", len(first.JobPaths[0]))
	}
	if _, err := GeneratePaths(first, ColGenConfig{Solver: solverOpts()}); err != nil {
		t.Fatal(err)
	}
	if len(first.JobPaths[0]) != 3 {
		t.Fatalf("discovery left %d paths, want 3", len(first.JobPaths[0]))
	}

	second := build()
	if len(second.JobPaths[0]) != 3 {
		t.Fatalf("second epoch starts with %d paths, want the 3 discovered", len(second.JobPaths[0]))
	}
	stats, err := GeneratePaths(second, ColGenConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AddedPaths != 0 {
		t.Fatalf("second epoch re-discovered %d paths, want 0", stats.AddedPaths)
	}

	enum, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{K: 2, PathCache: pc})
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.JobPaths[0]) != 2 {
		t.Fatalf("enumerated build under the same cache got %d paths, want its own K=2 entry", len(enum.JobPaths[0]))
	}
}

// TestColGenCloneProtectsSharedSeeds: two jobs over the same pair share
// one seed slice at build time; discovery must clone before appending so
// each job's path set grows independently and cache entries stay intact.
func TestColGenCloneProtectsSharedSeeds(t *testing.T) {
	g, base := thetaGraphJob(t)
	jobs := []job.Job{
		base[0],
		{ID: 2, Src: base[0].Src, Dst: base[0].Dst, Size: 3, Start: 0, End: 2},
	}
	pc := NewPathCache()
	inst, err := NewInstanceOpts(g, mustGrid(t, 4), jobs, InstanceOptions{
		ColumnGen: true, PathCache: pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeneratePaths(inst, ColGenConfig{Solver: solverOpts()}); err != nil {
		t.Fatal(err)
	}
	cached := pc.get(pathCacheKey{src: base[0].Src, dst: base[0].Dst, k: 2, colgen: true},
		func() []paths.Path { t.Fatal("colgen entry missing"); return nil })
	if len(cached) < 2 {
		t.Fatalf("published union has %d paths", len(cached))
	}
	for k := range inst.JobPaths {
		for _, p := range inst.JobPaths[k] {
			if len(p.Edges) == 0 {
				t.Fatalf("job %d holds a corrupted path", k)
			}
		}
	}
}
