package schedule

import (
	"testing"

	"wavesched/internal/netgraph"
	"wavesched/internal/workload"
)

// planInstance is a colgen instance whose stage-2 optimum is far from
// unique, with GeneratePaths already run under the shipped options.
func planInstance(t *testing.T, cfg ColGenConfig) (*Instance, *ColGenStats) {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 14, LinkPairs: 28, Wavelengths: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 8, Seed: 105, GBToDemand: 0.6, MinWindow: 2, MaxWindow: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstanceOpts(g, mustGrid(t, 8), jobs, InstanceOptions{ColumnGen: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solver = partialDantzigOpts()
	stats, err := GeneratePaths(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst, stats
}

// samePlan requires two results to be one plan: fractional values within
// 1e-7, integer schedules byte-identical.
func samePlan(t *testing.T, name string, a, b *Result) {
	t.Helper()
	assertAssignmentsClose(t, 0, name+" LP", a.LP, b.LP, 1e-7)
	if assignmentBytes(a.LPD) != assignmentBytes(b.LPD) || assignmentBytes(a.LPDAR) != assignmentBytes(b.LPDAR) {
		t.Errorf("%s: integer schedules differ", name)
	}
}

// TestMasterPlanLifetime: the plan GeneratePaths leaves on the instance
// answers exactly the stage-2 LP its master was priced for — that Z*, that
// α, those weights, those capacities — and lives as long as the Z*
// certificate beside it. Every other question is answered by a solve, which
// ends with the same lexicographic phase; where the two answer the same LP
// they return one plan.
func TestMasterPlanLifetime(t *testing.T) {
	cfg := Config{AlphaGrowth: 0.1, Solver: partialDantzigOpts()}
	inst, stats := planInstance(t, ColGenConfig{})
	if !stats.MasterPlan || !stats.Proven || stats.LexPivots == 0 {
		t.Fatalf("discovery left no plan to test: %+v", stats)
	}
	solve := func(inst *Instance, cfg Config, want string) *Result {
		t.Helper()
		before := readCounter(t, "schedule_stage2_master_plans_total")
		res, err := MaxThroughput(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != want {
			t.Fatalf("plan source %q, want %q", res.Plan, want)
		}
		taken := readCounter(t, "schedule_stage2_master_plans_total") - before
		if (want == PlanMaster) != (taken == 1) {
			t.Fatalf("plan source %q with %d master plans counted", want, taken)
		}
		return res
	}
	master := solve(inst, cfg, PlanMaster)
	if master.Stage2Iters != stats.LexPivots || master.Stage2Time <= 0 {
		t.Errorf("master plan reports %d stage-2 pivots in %v, its lexicographic phase took %d",
			master.Stage2Iters, master.Stage2Time, stats.LexPivots)
	}
	if again := solve(inst, cfg, PlanMaster); assignmentBytes(again.LPDAR) != assignmentBytes(master.LPDAR) {
		t.Error("reading the plan twice gave two schedules")
	}

	// Another α, other weights, another Z*: not the master's LP.
	other := cfg
	other.Alpha = 0.3
	solve(inst, other, PlanCold)
	other = cfg
	other.Weight = WeightUniform
	solve(inst, other, PlanCold)
	inflated, err := MaxThroughputWithZ(inst, &Stage1Result{ZStar: master.ZStar * 1.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inflated.Plan != PlanCold || inflated.Alpha <= cfg.withDefaults().Alpha {
		t.Errorf("a Z* the network cannot carry: plan %q at alpha %v, want the Remark-1 ladder's cold solve", inflated.Plan, inflated.Alpha)
	}

	// Sub-instances do not inherit the plan.
	for _, c := range Decompose(inst, nil) {
		if c.Inst.masterPlan != nil || c.Inst.provenZ != nil {
			t.Fatalf("component %s: plan %v, Z* %v", c.Key, c.Inst.masterPlan, c.Inst.provenZ)
		}
	}

	// A capacity change drops plan and certificate together; the cold solve
	// over the unchanged LP (the override repeats the edge's capacity) is the
	// master's plan.
	e := inst.JobPaths[0][0].Edges[0]
	if err := inst.SetCapacity(e, 0, inst.Capacity(e, 0)); err != nil {
		t.Fatal(err)
	}
	if inst.masterPlan != nil || inst.provenZ != nil {
		t.Fatal("SetCapacity kept what GeneratePaths left")
	}
	samePlan(t, "cold after SetCapacity", master, solve(inst, cfg, PlanCold))

	// The next GeneratePaths replaces it; a capacity mask drops it again; a
	// probe run (SkipStage2) or a master cut short leaves none.
	if st, err := GeneratePaths(inst, ColGenConfig{Solver: cfg.Solver}); err != nil || !st.MasterPlan {
		t.Fatalf("second GeneratePaths: %+v, %v", st, err)
	}
	if err := maskLinksDown(inst, []netgraph.EdgeID{e}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if inst.masterPlan != nil {
		t.Fatal("masking a link kept the plan")
	}
	if probe, st := planInstance(t, ColGenConfig{SkipStage2: true}); st.MasterPlan || probe.masterPlan != nil {
		t.Fatal("a SkipStage2 run left a stage-2 plan")
	}
	short, st := planInstance(t, ColGenConfig{MaxRounds: 1})
	if st.MasterPlan || short.masterPlan != nil || st.LexPivots != 0 {
		t.Fatalf("a master cut short left a plan: %+v", st)
	}
	solve(short, cfg, PlanCold)
}

// TestColGenDecomposedSolvesForItsPlan pins the choice DESIGN §16 records
// for a ColumnGen instance that decomposes: the multi-component branch does
// not assemble a plan from per-component masters, it solves — each component
// ending with the lexicographic phase — and Config.Monolithic reads the
// whole-instance master's plan when discovery ran one. Either way it is the
// same plan, because the canonical optimum of a block-diagonal LP is the
// product of its blocks' canonical optima.
func TestColGenDecomposedSolvesForItsPlan(t *testing.T) {
	opts := partialDantzigOpts()
	for _, tc := range []struct {
		name       string
		seed       int64
		drop       int // trailing jobs left out; 2 leaves a dominant component
		masterPlan bool
	}{
		// Two equal clusters: discovery runs per component and merges nothing.
		{"per_component_discovery", 5, 0, false},
		// One cluster holds more than half the jobs: discovery runs one
		// whole-instance master, whose plan only a monolithic solve can use.
		{"whole_instance_discovery", 5, 2, true},
		// A priced path re-partitions the jobs: the joint verification round
		// is a whole-instance master too.
		{"joint_verification", 7, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, jobs := clusteredGraphJobs(t, 2, 6, 4, tc.seed)
			jobs = jobs[:len(jobs)-tc.drop]
			inst, err := NewInstanceOpts(g, mustGrid(t, 8), jobs, InstanceOptions{ColumnGen: true})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := GeneratePaths(inst, ColGenConfig{Solver: opts})
			if err != nil {
				t.Fatal(err)
			}
			if stats.MasterPlan != tc.masterPlan {
				t.Fatalf("discovery left a plan: %v, want %v (%+v)", stats.MasterPlan, tc.masterPlan, stats)
			}
			dec, err := MaxThroughput(inst, Config{Solver: opts, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Components < 2 || dec.Plan != PlanCold {
				t.Fatalf("decomposed solve: %d components, plan %q", dec.Components, dec.Plan)
			}
			mono, err := MaxThroughput(inst, Config{Solver: opts, Monolithic: true})
			if err != nil {
				t.Fatal(err)
			}
			want := PlanCold
			if tc.masterPlan {
				want = PlanMaster
			}
			if mono.Plan != want {
				t.Fatalf("monolithic solve: plan %q, want %q", mono.Plan, want)
			}
			samePlan(t, "monolithic vs decomposed", mono, dec)
		})
	}
}

// TestOneBlockPartitionIsTheInstance: a solve always runs over a partition,
// and when that is one block — the instance is fully coupled, or Monolithic
// asks for it — the block is the instance itself, not a copy. That is what
// lets a ColumnGen instance solved through the partition still find what
// GeneratePaths left on it: Z* from the proof, the plan from the master.
func TestOneBlockPartitionIsTheInstance(t *testing.T) {
	coupled, _ := planInstance(t, ColGenConfig{})
	clustered := clusteredInstance(t, 3, 5, 3, 50)
	for _, tc := range []struct {
		name       string
		inst       *Instance
		monolithic bool
	}{{"coupled", coupled, false}, {"forced", clustered, true}} {
		comps := partition(tc.inst, nil, tc.monolithic)
		if len(comps) != 1 || comps[0].Inst != tc.inst || len(comps[0].JobIdx) != tc.inst.NumJobs() {
			t.Fatalf("%s: %d components, the first over %d of %d jobs, on the parent: %v",
				tc.name, len(comps), len(comps[0].JobIdx), tc.inst.NumJobs(), comps[0].Inst == tc.inst)
		}
		for k, idx := range comps[0].JobIdx {
			if idx != k {
				t.Fatalf("%s: JobIdx[%d] = %d", tc.name, k, idx)
			}
		}
	}
	for _, c := range partition(clustered, nil, false) {
		if c.Inst == clustered {
			t.Fatal("a block of a multi-block partition is the parent instance")
		}
	}

	solves := readCounter(t, "schedule_stage1_solves_total")
	res, err := MaxThroughput(coupled, Config{AlphaGrowth: 0.1, Solver: partialDantzigOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if n := readCounter(t, "schedule_stage1_solves_total") - solves; n != 0 || res.Plan != PlanMaster || res.Components != 1 {
		t.Fatalf("colgen instance through the partition: %d stage-1 solves, plan %q, %d components; want 0, master, 1",
			n, res.Plan, res.Components)
	}
}
