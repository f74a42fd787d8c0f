package controller

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/workload"
)

// runColGenScenario drives the warm_test fault scenario with column
// generation on: epoch instances start from seed paths plus whatever
// earlier epochs priced in, grown by GeneratePaths before each solve.
func runColGenScenario(t *testing.T, policy Policy) ([]Record, []EpochStat) {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 8, LinkPairs: 16, Wavelengths: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 6, Seed: 22, GBToDemand: 0.4, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, Policy: policy, BMax: 3,
		ColumnGen: true,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 2:
			if err := c.LinkDown(netgraph.EdgeID(0), c.Now()+0.25); err != nil {
				t.Fatal(err)
			}
		case 5:
			if err := c.LinkUp(netgraph.EdgeID(0), c.Now()+0.25); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c.Records(), c.EpochStats()
}

// TestControllerColumnGenWarmByteIdentical runs the fault scenario with
// column generation twice under both policies: the records and epoch stats
// must be bit-identical — pricing is deterministic, so the grown path sets
// (and therefore the schedules) are a function of the input, as WAL replay
// needs.
func TestControllerColumnGenWarmByteIdentical(t *testing.T) {
	for _, pol := range []struct {
		name   string
		policy Policy
	}{
		{"ret", PolicyRET},
		{"maxthroughput", PolicyMaxThroughput},
	} {
		t.Run(pol.name, func(t *testing.T) {
			solvesBefore := telemetry.Default().Counter("schedule_colgen_solves_total", "").Value()
			firstRecs, firstStats := runColGenScenario(t, pol.policy)
			if telemetry.Default().Counter("schedule_colgen_solves_total", "").Value() == solvesBefore {
				t.Fatal("scenario never engaged the column-generation pricing loop")
			}
			againRecs, againStats := runColGenScenario(t, pol.policy)
			if len(firstRecs) == 0 {
				t.Fatal("scenario produced no records")
			}
			delivered := 0.0
			for _, r := range firstRecs {
				delivered += r.Delivered
			}
			if delivered == 0 {
				t.Fatal("nothing delivered under column generation")
			}
			if fb, ab := recordsBytes(firstRecs), recordsBytes(againRecs); fb != ab {
				t.Errorf("records differ between two colgen runs:\nfirst:\n%s\nagain:\n%s", fb, ab)
			}
			if len(firstStats) != len(againStats) {
				t.Fatalf("epoch count differs: first=%d again=%d", len(firstStats), len(againStats))
			}
			for i := range firstStats {
				if firstStats[i].Scheduled != againStats[i].Scheduled ||
					firstStats[i].Tier != againStats[i].Tier {
					t.Errorf("epoch %d stats differ: first=%+v again=%+v", i, firstStats[i], againStats[i])
				}
			}
		})
	}
}

// TestControllerColumnGenCrossEpochReuse checks that on a stable topology
// the pricing loop converges across epochs: once the first epochs have
// discovered the columns the workload needs, later epochs start from the
// published PathCache sets and price in nothing new.
func TestControllerColumnGenCrossEpochReuse(t *testing.T) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 10, LinkPairs: 20, Wavelengths: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 8, Seed: 9, GBToDemand: 0.3, MinWindow: 4, MaxWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cacheHits := telemetry.Default().Counter("schedule_pathcache_hits_total", "")
	hits0 := cacheHits.Value()
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, Policy: PolicyMaxThroughput, ColumnGen: true,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	paths := telemetry.Default().Counter("schedule_colgen_paths_total", "")
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	afterFirst := paths.Value()
	for i := 0; i < 3 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// Identical pair sets re-enter through the PathCache: later epochs may
	// discover columns for shrunken residual windows, but a fixed workload
	// on a stable topology must stop discovering quickly.
	if added := paths.Value() - afterFirst; added > afterFirst {
		t.Errorf("later epochs priced in %d paths, first epoch only %d — cross-epoch reuse not engaging",
			added, afterFirst)
	}
	if cacheHits.Value() == hits0 {
		t.Error("no path-cache hits across colgen epochs")
	}
}

// TestControllerColumnGenPoolIndependence is the exactness argument of the
// support carry as a property: a master priced to the end is optimal over
// the full path space whatever pool it started from, so evicting columns
// between epochs may change how much is re-priced but never an optimum.
// Over seeded controller traces with arrivals and a moving horizon, every
// epoch's Z* and fractional stage-2 objective — solved on the instance the
// controller grew from its carried pool — must equal those of a cache-less
// build of the same jobs, seeds only, priced from scratch.
func TestControllerColumnGenPoolIndependence(t *testing.T) {
	evicted := telemetry.Default().Counter("schedule_colgen_evicted_paths_total", "")
	evictedBefore := evicted.Value()
	for seed := int64(1); seed <= 3; seed++ {
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 16, LinkPairs: 26, Wavelengths: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(g, Config{
			Tau: 1, SliceLen: 1, Policy: PolicyMaxThroughput, ColumnGen: true,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		scfg := schedule.Config{AlphaGrowth: 0.1}
		nextID := job.ID(1)
		for e := 0; e < 12; e++ {
			arrivals, err := workload.Generate(g, workload.Config{
				Jobs: 3, Seed: seed*1000 + int64(e), GBToDemand: 0.4,
				StartSpread: 1, MinWindow: 4, MaxWindow: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range arrivals {
				j.ID, j.Start, j.End, j.Arrival = nextID, j.Start+c.Now(), j.End+c.Now(), c.Now()
				nextID++
				if err := c.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			if st := c.EpochStats(); st[len(st)-1].Tier != TierFull {
				t.Fatalf("seed %d epoch %d: tier %q", seed, e, st[len(st)-1].Tier)
			}
			plan, _, _, ok := c.CommittedSchedule()
			if !ok {
				t.Fatalf("seed %d epoch %d: nothing committed", seed, e)
			}
			inst := plan.Inst // grown from the carried pool, Z* certificate attached
			carried, err := schedule.MaxThroughput(inst, scfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := schedule.NewInstanceOpts(inst.G, inst.Grid, inst.Jobs, schedule.InstanceOptions{ColumnGen: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := schedule.GeneratePaths(ref, schedule.ColGenConfig{}); err != nil {
				t.Fatal(err)
			}
			scratch, err := schedule.MaxThroughput(ref, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(carried.ZStar-scratch.ZStar) > 1e-7 {
				t.Errorf("seed %d epoch %d: Z* %v from the carried pool, %v from scratch", seed, e, carried.ZStar, scratch.ZStar)
			}
			co, so := carried.LP.WeightedThroughput(), scratch.LP.WeightedThroughput()
			if carried.Alpha != scratch.Alpha || math.Abs(co-so) > 1e-7 {
				t.Errorf("seed %d epoch %d: stage-2 optimum %v (alpha %v) from the carried pool, %v (alpha %v) from scratch",
					seed, e, co, carried.Alpha, so, scratch.Alpha)
			}
		}
	}
	if evicted.Value() == evictedBefore {
		t.Fatal("no epoch evicted a carried path — the traces exercise nothing")
	}
}

// TestControllerColumnGenPlanFromMaster is the plan-source oracle: under
// ColumnGen every epoch commits the plan GeneratePaths read off its priced
// stage-2 master, and that plan is the one a cold stage-2 solve ending with
// the lexicographic phase returns over the same grown pool — byte for byte
// once integerized, within 1e-7 before. Over seeded traces with arrivals and
// a moving horizon no epoch may solve a stage-2 LP of its own: one master
// plan per epoch, no schedule.stage2 span, and the planned event says so.
func TestControllerColumnGenPlanFromMaster(t *testing.T) {
	masterPlans := telemetry.Default().Counter("schedule_stage2_master_plans_total", "")
	scfg := schedule.Config{AlphaGrowth: 0.1}
	for seed := int64(1); seed <= 3; seed++ {
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 16, LinkPairs: 26, Wavelengths: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		tracer := telemetry.NewTracer(&trace)
		c, err := New(g, Config{
			Tau: 1, SliceLen: 1, Policy: PolicyMaxThroughput, ColumnGen: true, Tracer: tracer,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		const epochs = 12
		nextID := job.ID(1)
		for e := 0; e < epochs; e++ {
			arrivals, err := workload.Generate(g, workload.Config{
				Jobs: 3, Seed: seed*1000 + int64(e), GBToDemand: 0.4,
				StartSpread: 1, MinWindow: 4, MaxWindow: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range arrivals {
				j.ID, j.Start, j.End, j.Arrival = nextID, j.Start+c.Now(), j.End+c.Now(), c.Now()
				nextID++
				if err := c.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			before := masterPlans.Value()
			if err := c.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d epoch %d", seed, e)
			if got := masterPlans.Value() - before; got != 1 {
				t.Errorf("%s: %d plans taken from the master, want 1", name, got)
			}
			committed, _, _, ok := c.CommittedSchedule()
			if !ok {
				t.Fatalf("%s: nothing committed", name)
			}
			inst := committed.Inst
			// The same jobs over the same grown pool, with nothing left on the
			// instance by a GeneratePaths run: stage 2 has to be solved.
			ref, err := schedule.NewInstanceOpts(inst.G, inst.Grid, inst.Jobs, schedule.InstanceOptions{ColumnGen: true})
			if err != nil {
				t.Fatal(err)
			}
			ref.JobPaths = inst.JobPaths
			master, err := schedule.MaxThroughput(inst, scfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := schedule.MaxThroughputWithZ(ref, &schedule.Stage1Result{ZStar: master.ZStar}, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if master.Plan != schedule.PlanMaster || cold.Plan != schedule.PlanCold {
				t.Fatalf("%s: plan sources %q and %q", name, master.Plan, cold.Plan)
			}
			if master.Stage2Iters == 0 || master.Stage2Time == 0 {
				t.Errorf("%s: a master plan reports its lexicographic phase, got %d pivots in %v", name, master.Stage2Iters, master.Stage2Time)
			}
			if master.Alpha != cold.Alpha {
				t.Errorf("%s: alpha %v from the master, %v cold", name, master.Alpha, cold.Alpha)
			}
			for k := range cold.LP.X {
				for p := range cold.LP.X[k] {
					for j, want := range cold.LP.X[k][p] {
						if got := master.LP.X[k][p][j]; math.Abs(got-want) > 1e-7 {
							t.Fatalf("%s: x[%d][%d][%d] = %v from the master, %v cold", name, k, p, j, got, want)
						}
						if got, want := committed.X[k][p][j], cold.LPDAR.X[k][p][j]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: committed x[%d][%d][%d] = %v, cold solve + lexicographic phase %v", name, k, p, j, got, want)
						}
					}
				}
			}
			exp, ok := c.Explain(nextID - 1)
			if !ok {
				t.Fatalf("%s: no explanation for job %d", name, nextID-1)
			}
			planned := ""
			for _, ev := range exp.Events {
				if ev.Kind == AuditPlanned {
					planned = ev.Detail
				}
			}
			if !strings.Contains(planned, "plan=master") {
				t.Errorf("%s: planned event %q does not name the plan source", name, planned)
			}
		}
		if err := tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		fromMaster := 0
		for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
			var rec struct {
				Name  string
				Attrs struct{ Plan string }
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("bad trace line %q: %v", line, err)
			}
			switch rec.Name {
			case "schedule.stage2":
				t.Errorf("seed %d: an epoch solved stage 2 over the grown pool", seed)
			case "schedule.colgen":
				if rec.Attrs.Plan == schedule.PlanMaster {
					fromMaster++
				}
			}
		}
		if fromMaster != epochs {
			t.Errorf("seed %d: %d schedule.colgen spans with plan=master, want %d", seed, fromMaster, epochs)
		}
	}
}
