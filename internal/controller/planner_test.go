package controller

import (
	"io"
	"log/slog"
	"math"
	"testing"

	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/workload"
)

// greedyPlanner is a first-fit baseline behind the planner seam: each job,
// in instance order, takes its first (shortest) path and, slice by slice
// through its window, as many wavelengths still free on every link of that
// path as its remaining demand can use. It keeps no carry, and records
// each instance with its plan.
type greedyPlanner struct {
	insts []*schedule.Instance
	plans []*schedule.Assignment
}

func (p *greedyPlanner) plan(inst *schedule.Instance, _ []*activeJob, _ float64, _ *solveInfo) (*schedule.Assignment, error) {
	a := schedule.NewAssignment(inst)
	p.insts, p.plans = append(p.insts, inst), append(p.plans, a)
	free := make([][]int, inst.G.NumEdges())
	for e := range free {
		free[e] = make([]int, inst.Grid.Num())
		for j := range free[e] {
			free[e][j] = inst.Capacity(netgraph.EdgeID(e), j)
		}
	}
	for k, jb := range inst.Jobs {
		if len(inst.JobPaths[k]) == 0 {
			continue
		}
		path := inst.JobPaths[k][0]
		first, last := inst.Window(k)
		left := jb.Size
		for j := first; j <= last && left > 1e-9; j++ {
			w := int(math.Ceil(left/inst.Grid.Len(j) - 1e-9))
			for _, e := range path.Edges {
				w = min(w, free[e][j])
			}
			if w <= 0 {
				continue
			}
			a.X[k][0][j] = float64(w)
			for _, e := range path.Edges {
				free[e][j] -= w
			}
			left -= float64(w) * inst.Grid.Len(j)
		}
	}
	return a, nil
}

// scenario runs a seeded Waxman workload through a controller under policy,
// failing edge 0 mid-period at the third epoch and repairing it at the
// sixth. Before every epoch after the first, check sees the controller with
// its commitment still unsettled.
func scenario(t *testing.T, seed int64, policy Policy, pl planner, check func(c *Controller)) *Controller {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 8, LinkPairs: 14, Wavelengths: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 10, Seed: seed + 100, GBToDemand: 0.2, StartSpread: 8, MinWindow: 2, MaxWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(g, Config{
		Tau: 2, SliceLen: 1, K: 3, Policy: policy, BMax: 2,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl != nil {
		c.planner = pl
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30 && !c.Idle(); i++ {
		if i > 0 && check != nil {
			check(c)
		}
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		var ev func(netgraph.EdgeID, float64) error
		switch i {
		case 2:
			ev = c.LinkDown
		case 5:
			ev = c.LinkUp
		}
		if ev != nil {
			if err := ev(0, c.Now()-1.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestProjectionsMatchSettlement is a property over seeded scenarios, link
// failures included: before settlement, ActiveCount and projectedFinish
// predict exactly what settling the commitment then records.
func TestProjectionsMatchSettlement(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, policy := range []Policy{PolicyMaxThroughput, PolicyRET} {
			checked := 0
			scenario(t, seed, policy, nil, func(c *Controller) {
				cm := c.commit
				if cm == nil {
					return
				}
				want := c.ActiveCount()
				finish := make(map[*activeJob]float64)
				for _, aj := range c.active {
					if f, ok := c.projectedFinish(aj); ok && !aj.retired && f <= cm.end+1e-9 {
						finish[aj] = f
					}
				}
				from := len(c.records)
				c.settleAll()
				got := 0
				for _, aj := range c.active {
					if !aj.retired {
						got++
					}
				}
				if got != want {
					t.Errorf("seed %d policy %d t=%g: ActiveCount %d, %d jobs live after settlement", seed, policy, c.Now(), want, got)
				}
				completed := make(map[int]float64)
				for _, r := range c.records[from:] {
					if r.Completed {
						completed[int(r.Job.ID)] = r.FinishTime
					}
				}
				if len(completed) != len(finish) {
					t.Errorf("seed %d policy %d t=%g: %d projected finishes, %d completions", seed, policy, c.Now(), len(finish), len(completed))
				}
				for aj, f := range finish {
					if got, ok := completed[int(aj.orig.ID)]; !ok || got != f {
						t.Errorf("seed %d policy %d: job %d projected to finish at %g, settled at %v (%v)", seed, policy, aj.orig.ID, f, got, ok)
					}
				}
				checked++
			})
			if checked < 3 {
				t.Errorf("seed %d policy %d: %d commitments checked, want 3 or more", seed, policy, checked)
			}
		}
	}
}

// TestGreedyPlannerThroughTheSeam drives a first-fit planner through the
// seam: every plan it commits is capacity-, window- and integer-feasible,
// and no plan beats the stage-2 LP at α = 1 on the same instance. How much
// LPDAR gives up against it is logged, not asserted.
func TestGreedyPlannerThroughTheSeam(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pl := &greedyPlanner{}
		c := scenario(t, seed, PolicyMaxThroughput, pl, nil)
		if len(pl.insts) == 0 {
			t.Fatalf("seed %d: the greedy planner never ran", seed)
		}
		for i, inst := range pl.insts {
			plan := pl.plans[i]
			if err := plan.VerifyCapacity(1e-9); err != nil {
				t.Errorf("seed %d plan %d: %v", seed, i, err)
			}
			if err := plan.VerifyWindows(1e-9); err != nil {
				t.Errorf("seed %d plan %d: %v", seed, i, err)
			}
			if err := plan.VerifyIntegral(1e-9); err != nil {
				t.Errorf("seed %d plan %d: %v", seed, i, err)
			}
			res, err := schedule.MaxThroughput(inst, schedule.Config{Alpha: 1})
			if err != nil {
				t.Fatalf("seed %d plan %d: %v", seed, i, err)
			}
			greedy, bound := plan.WeightedThroughput(), res.LP.WeightedThroughput()
			if greedy > bound+1e-9 {
				t.Errorf("seed %d plan %d: greedy %g above the stage-2 LP bound %g", seed, i, greedy, bound)
			}
			t.Logf("seed %d plan %d: LP %.4f  greedy %.4f  LPDAR %.4f (loss vs greedy %+.4f)",
				seed, i, bound, greedy, res.LPDAR.WeightedThroughput(), greedy-res.LPDAR.WeightedThroughput())
		}
		if recs := c.Records(); len(recs) == 0 {
			t.Errorf("seed %d: no records", seed)
		}
	}
}
