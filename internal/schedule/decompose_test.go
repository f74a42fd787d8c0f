package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

// clusteredGraphJobs builds nClusters disjoint ring clusters (nodesPer
// nodes each, plus one random chord) and jobsPer in-cluster jobs per
// cluster, so the instance decomposes into at least nClusters components.
func clusteredGraphJobs(t testing.TB, nClusters, nodesPer, jobsPer int, seed int64) (*netgraph.Graph, []job.Job) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.New("clusters")
	nodes := make([][]netgraph.NodeID, nClusters)
	for c := 0; c < nClusters; c++ {
		nodes[c] = make([]netgraph.NodeID, nodesPer)
		for i := 0; i < nodesPer; i++ {
			nodes[c][i] = g.AddNode(fmt.Sprintf("c%d-n%d", c, i),
				float64(c)+rng.Float64()*0.5, rng.Float64())
		}
		for i := 0; i < nodesPer; i++ {
			if err := g.AddPair(nodes[c][i], nodes[c][(i+1)%nodesPer], 2, 10); err != nil {
				t.Fatal(err)
			}
		}
		// One chord for path diversity (k > 1 finds distinct routes).
		a, b := rng.Intn(nodesPer), rng.Intn(nodesPer)
		for b == a || (a+1)%nodesPer == b || (b+1)%nodesPer == a {
			a, b = rng.Intn(nodesPer), rng.Intn(nodesPer)
		}
		if err := g.AddPair(nodes[c][a], nodes[c][b], 2, 10); err != nil {
			t.Fatal(err)
		}
	}
	var jobs []job.Job
	for c := 0; c < nClusters; c++ {
		for i := 0; i < jobsPer; i++ {
			src := nodes[c][rng.Intn(nodesPer)]
			dst := src
			for dst == src {
				dst = nodes[c][rng.Intn(nodesPer)]
			}
			start := float64(rng.Intn(3))
			jobs = append(jobs, job.Job{
				ID: job.ID(c*jobsPer + i), Src: src, Dst: dst,
				Size:  3 + rng.Float64()*7,
				Start: start, End: start + 2 + float64(rng.Intn(2)),
			})
		}
	}
	return g, jobs
}

// clusteredInstance is clusteredGraphJobs wrapped in an 8-slice instance.
func clusteredInstance(t testing.TB, nClusters, nodesPer, jobsPer int, seed int64) *Instance {
	t.Helper()
	g, jobs := clusteredGraphJobs(t, nClusters, nodesPer, jobsPer, seed)
	grid, err := timeslice.Uniform(0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// dantzigOpts forces the two knobs under which decomposed and monolithic
// solves are provably bit-identical: Dantzig pricing (block-diagonal
// pivoting is an interleaving of block-local pivot sequences, where
// PartialDantzig's window and cursor follow the model's width) and per-pivot
// refactorization (the eta-update counter is global, so with periodic
// refactorization the monolithic run rebuilds a block's LU at different
// pivot counts than the component-local run — same math, different
// rounding in the last bits). Only the SUB-RET identity tests still need
// it: a MaxThroughput plan is the stage-2 LP's canonical vertex under any
// options, and those tests run the shipped ones (partialDantzigOpts).
func dantzigOpts() lp.Options {
	return lp.Options{MaxIter: 200000, Pricing: lp.Dantzig, RefactorEvery: 1}
}

// TestDecomposeClusters: disjoint clusters decompose into one component
// per cluster, ordered by smallest job index, with ascending members.
func TestDecomposeClusters(t *testing.T) {
	const nClusters, jobsPer = 3, 4
	inst := clusteredInstance(t, nClusters, 5, jobsPer, 11)
	comps := Decompose(inst, nil)
	if len(comps) < nClusters {
		t.Fatalf("got %d components, want >= %d", len(comps), nClusters)
	}
	seen := make(map[int]bool)
	prevMin := -1
	for _, c := range comps {
		if len(c.JobIdx) == 0 {
			t.Fatal("empty component")
		}
		if c.JobIdx[0] <= prevMin {
			t.Fatalf("components not ordered by smallest job index: %v after %d", c.JobIdx, prevMin)
		}
		prevMin = c.JobIdx[0]
		cluster := c.JobIdx[0] / jobsPer
		for i, k := range c.JobIdx {
			if seen[k] {
				t.Fatalf("job index %d in two components", k)
			}
			seen[k] = true
			if i > 0 && c.JobIdx[i-1] >= k {
				t.Fatalf("JobIdx not ascending: %v", c.JobIdx)
			}
			if k/jobsPer != cluster {
				t.Fatalf("component %v spans clusters", c.JobIdx)
			}
		}
		if c.Inst.NumJobs() != len(c.JobIdx) {
			t.Fatalf("sub-instance has %d jobs, component lists %d", c.Inst.NumJobs(), len(c.JobIdx))
		}
	}
	if len(seen) != inst.NumJobs() {
		t.Fatalf("components cover %d jobs, instance has %d", len(seen), inst.NumJobs())
	}
}

// TestDecomposeDeterministic: two runs produce identical component
// structure and keys.
func TestDecomposeDeterministic(t *testing.T) {
	inst := clusteredInstance(t, 3, 5, 4, 12)
	a := Decompose(inst, nil)
	b := Decompose(inst, nil)
	if len(a) != len(b) {
		t.Fatalf("component count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("component %d key differs: %q vs %q", i, a[i].Key, b[i].Key)
		}
	}
}

// TestDecomposePartitionRandom: on arbitrary random instances the
// decomposition is a partition of the jobs, and jobs sharing an edge with
// overlapping windows always land in one component.
func TestDecomposePartitionRandom(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	for seed := int64(0); seed < int64(n); seed++ {
		inst := genInstance(t, seed)
		comps := Decompose(inst, nil)
		compOf := make(map[int]int)
		total := 0
		for ci, c := range comps {
			total += len(c.JobIdx)
			for _, k := range c.JobIdx {
				if _, dup := compOf[k]; dup {
					t.Fatalf("seed %d: job %d in two components", seed, k)
				}
				compOf[k] = ci
			}
		}
		if total != inst.NumJobs() {
			t.Fatalf("seed %d: components cover %d of %d jobs", seed, total, inst.NumJobs())
		}
		// Direct coupling check against the definition.
		edgesOf := func(k int) map[netgraph.EdgeID]bool {
			s := make(map[netgraph.EdgeID]bool)
			for _, p := range inst.JobPaths[k] {
				for _, e := range p.Edges {
					s[e] = true
				}
			}
			return s
		}
		for a := 0; a < inst.NumJobs(); a++ {
			ea := edgesOf(a)
			fa, la := inst.Window(a)
			for b := a + 1; b < inst.NumJobs(); b++ {
				fb, lb := inst.Window(b)
				if la < fb || lb < fa {
					continue // windows disjoint: no shared capacity pool
				}
				shared := false
				for e := range edgesOf(b) {
					if ea[e] {
						shared = true
						break
					}
				}
				if shared && compOf[a] != compOf[b] {
					t.Fatalf("seed %d: jobs %d and %d share an edge with overlapping windows but are in different components", seed, a, b)
				}
			}
		}
	}
}

// TestDecomposedMatchesMonolithicWithZ is the core separability theorem:
// given the same Z*, the decomposed stage-2 path must reproduce the
// monolithic plan — under the shipped solver options, where the two pivot
// sequences share nothing: both end on the canonical vertex of a
// block-diagonal LP, so the fractional plans agree within 1e-7 and the
// integer schedules byte for byte.
func TestDecomposedMatchesMonolithicWithZ(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		inst := clusteredInstance(t, 3, 5, 3, seed)
		s1, err := SolveStage1(inst, partialDantzigOpts())
		if err != nil {
			t.Fatal(err)
		}
		mono, err := MaxThroughputWithZ(inst, s1, Config{
			Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts(), Monolithic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := MaxThroughputWithZ(inst, s1, Config{
			Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if mono.Components != 1 {
			t.Fatalf("seed %d: monolithic solve reports %d components", seed, mono.Components)
		}
		if dec.Components < 3 {
			t.Fatalf("seed %d: decomposed solve found %d components, want >= 3", seed, dec.Components)
		}
		if mono.Alpha != dec.Alpha {
			t.Fatalf("seed %d: alpha differs: mono %v dec %v", seed, mono.Alpha, dec.Alpha)
		}
		assertAssignmentsClose(t, seed, "LP", mono.LP, dec.LP, 1e-7)
		for _, pair := range []struct {
			name      string
			mono, dec *Assignment
		}{{"LPD", mono.LPD, dec.LPD}, {"LPDAR", mono.LPDAR, dec.LPDAR}} {
			if mb, db := assignmentBytes(pair.mono), assignmentBytes(pair.dec); mb != db {
				t.Fatalf("seed %d: %s schedule differs between monolithic and decomposed:\nmono:\n%s\ndec:\n%s",
					seed, pair.name, mb, db)
			}
		}
	}
}

// TestDecomposedMatchesMonolithicMaxThroughput runs the full pipeline both
// ways. Z* comes from structurally different stage-1 models (one coupled
// LP vs per-component LPs), so it is compared to LP tolerance; the
// schedules must agree to the same tolerance entry-wise.
func TestDecomposedMatchesMonolithicMaxThroughput(t *testing.T) {
	for seed := int64(30); seed < 36; seed++ {
		inst := clusteredInstance(t, 3, 5, 3, seed)
		cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts()}
		monoCfg := cfg
		monoCfg.Monolithic = true
		mono, err := MaxThroughput(inst, monoCfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := MaxThroughput(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if mono.Components != 1 {
			t.Fatalf("seed %d: monolithic solve reports %d components", seed, mono.Components)
		}
		if math.Abs(mono.ZStar-dec.ZStar) > 1e-6*(1+math.Abs(mono.ZStar)) {
			t.Fatalf("seed %d: Z* differs: mono %v dec %v", seed, mono.ZStar, dec.ZStar)
		}
		assertAssignmentsClose(t, seed, "LP", mono.LP, dec.LP, 1e-6)
		assertAssignmentsClose(t, seed, "LPDAR", mono.LPDAR, dec.LPDAR, 1e-6)
	}
}

func assertAssignmentsClose(t *testing.T, seed int64, name string, a, b *Assignment, tol float64) {
	t.Helper()
	for k := range a.X {
		for p := range a.X[k] {
			for j := range a.X[k][p] {
				if math.Abs(a.X[k][p][j]-b.X[k][p][j]) > tol {
					t.Fatalf("seed %d: %s entry (%d,%d,%d) differs: %v vs %v",
						seed, name, k, p, j, a.X[k][p][j], b.X[k][p][j])
				}
			}
		}
	}
}

// clusteredRETInstance builds an overloaded clustered RET instance.
func clusteredRETInstance(t testing.TB, nClusters int, seed int64) *Instance {
	t.Helper()
	g, jobs := clusteredGraphJobs(t, nClusters, 4, 3, seed)
	inst, err := BuildRETInstance(g, jobs, 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestDecomposedMatchesMonolithicRET: b̂ must agree bit for bit (every
// bisection halves the same [0, BMax] interval, so all candidate b values
// lie on one dyadic grid and max-merge is exact), and the final schedules
// must match under Dantzig pricing.
func TestDecomposedMatchesMonolithicRET(t *testing.T) {
	last := int64(43)
	if testing.Short() {
		last = 41
	}
	anyOverload := false
	for seed := int64(40); seed < last; seed++ {
		inst := clusteredRETInstance(t, 3, seed)
		mono, err := SolveRET(inst, RETConfig{Solver: dantzigOpts(), Monolithic: true})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := SolveRET(inst, RETConfig{Solver: dantzigOpts()})
		if err != nil {
			t.Fatal(err)
		}
		if mono.Components != 1 {
			t.Fatalf("seed %d: monolithic RET reports %d components", seed, mono.Components)
		}
		if dec.Components < 3 {
			t.Fatalf("seed %d: decomposed RET found %d components, want >= 3", seed, dec.Components)
		}
		if mono.BHat != dec.BHat || mono.B != dec.B || mono.Rounds != dec.Rounds {
			t.Fatalf("seed %d: search outcome differs: mono (b̂=%v b=%v rounds=%d) dec (b̂=%v b=%v rounds=%d)",
				seed, mono.BHat, mono.B, mono.Rounds, dec.BHat, dec.B, dec.Rounds)
		}
		if mono.BHat > 0 {
			anyOverload = true
		}
		for _, pair := range []struct {
			name      string
			mono, dec *Assignment
		}{{"LP", mono.LP, dec.LP}, {"LPD", mono.LPD, dec.LPD}, {"LPDAR", mono.LPDAR, dec.LPDAR}} {
			if mb, db := assignmentBytes(pair.mono), assignmentBytes(pair.dec); mb != db {
				t.Fatalf("seed %d: RET %s schedule differs:\nmono:\n%s\ndec:\n%s", seed, pair.name, mb, db)
			}
		}
	}
	if !anyOverload {
		t.Fatal("no seed was overloaded (b̂ = 0 everywhere): the search merge was never exercised")
	}
}

// TestDecomposedParallelByteIdentical: any parallelism level must produce
// the same bytes as the serial decomposed run — the merge order is fixed
// by component order, and the blocks stage 1 skips by the instance, not by
// goroutine scheduling. Run with -race.
func TestDecomposedParallelByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name      string
		inst      *Instance
		minBlocks int
		skips     bool // stage 1 skips a block whose bound shows it cannot set Z*
	}{
		{"clusters", clusteredInstance(t, 4, 5, 3, 50), 4, false},
		{"skewed", skewedInstance(t), 2, true},
	} {
		solves := readCounter(t, "schedule_stage1_solves_total")
		serial, err := MaxThroughput(tc.inst, Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: solverOpts(), Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		solves = readCounter(t, "schedule_stage1_solves_total") - solves
		par, err := MaxThroughput(tc.inst, Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: solverOpts(), Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Components != par.Components || serial.Components < tc.minBlocks {
			t.Fatalf("%s: components: serial %d parallel %d (want >= %d, equal)", tc.name, serial.Components, par.Components, tc.minBlocks)
		}
		if tc.skips && solves >= int64(serial.Components) {
			t.Fatalf("%s: stage 1 solved %d of %d blocks, want a block skipped", tc.name, solves, serial.Components)
		}
		if assignmentBytes(serial.LPDAR) != assignmentBytes(par.LPDAR) || serial.ZStar != par.ZStar ||
			serial.Stage1Iters != par.Stage1Iters {
			t.Fatalf("%s: parallel decomposed MaxThroughput differs from serial", tc.name)
		}
	}

	rinst := clusteredRETInstance(t, 4, 51)
	rs, err := SolveRET(rinst, RETConfig{Solver: solverOpts(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := SolveRET(rinst, RETConfig{Solver: solverOpts(), Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rs.BHat != rp.BHat || rs.B != rp.B || assignmentBytes(rs.LPDAR) != assignmentBytes(rp.LPDAR) {
		t.Fatal("parallel decomposed RET differs from serial")
	}
}

// TestDecomposedRETWarmByteIdentical: decomposed RET finds the per-probe
// oracle's b̂ bit for bit, per component, keyed like the decomposition.
func TestDecomposedRETWarmByteIdentical(t *testing.T) {
	inst := clusteredRETInstance(t, 3, 52)
	for _, o := range retIdentityOpts {
		cfg := RETConfig{Solver: o.opts}
		res, err := SolveRET(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Components < 3 {
			t.Fatalf("%s: decomposed RET found %d components, want >= 3", o.name, res.Components)
		}
		checkRETAgainstOracle(t, o.name, inst, cfg, res)
	}
}

// TestDecomposedRandomInstancesAgree is the fuzz-style sweep: across
// random Waxman instances (any component structure), monolithic and
// decomposed MaxThroughput agree on Z* and throughput to tolerance.
func TestDecomposedRandomInstancesAgree(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 5
	}
	for seed := int64(60); seed < int64(60+n); seed++ {
		inst := genInstance(t, seed)
		cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts()}
		monoCfg := cfg
		monoCfg.Monolithic = true
		mono, err := MaxThroughput(inst, monoCfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dec, err := MaxThroughput(inst, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(mono.ZStar-dec.ZStar) > 1e-6*(1+math.Abs(mono.ZStar)) {
			t.Fatalf("seed %d: Z* differs: mono %v dec %v", seed, mono.ZStar, dec.ZStar)
		}
		if mt, dt := mono.LPDAR.WeightedThroughput(), dec.LPDAR.WeightedThroughput(); math.Abs(mt-dt) > 1e-6*(1+math.Abs(mt)) {
			t.Fatalf("seed %d: LPDAR throughput differs: mono %v dec %v", seed, mt, dt)
		}
		checkCommonInvariants(t, dec, inst, dec.Alpha)
		if t.Failed() {
			t.Fatalf("decomposed invariants failed at seed %d", seed)
		}
	}
}
