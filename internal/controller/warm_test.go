package controller

import (
	"fmt"
	"io"
	"log/slog"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/workload"
)

// recordsBytes renders records with exact float formatting so two runs
// compare bit-for-bit (the WAL-replay determinism invariant).
func recordsBytes(recs []Record) string {
	s := ""
	for _, r := range recs {
		s += fmt.Sprintf("%d d=%b f=%b met=%v comp=%v rej=%v dis=%v\n",
			r.Job.ID, r.Delivered, r.FinishTime, r.MetDeadline, r.Completed, r.Rejected, r.Disrupted)
	}
	return s
}

// runScenario drives one controller through a multi-epoch overloaded
// scenario with a mid-run link failure and repair, returning the final
// records and epoch stats. With coldCarry, a PolicyMaxThroughput
// controller's stage-2 carry is emptied before every epoch and link event,
// so every stage-2 solve starts cold, as in a controller rebuilt by WAL
// replay at that point.
func runScenario(t *testing.T, policy Policy, coldCarry bool) ([]Record, []EpochStat) {
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
	// BMax is sized so the first epoch runs a full bisection search (b̂ ≈
	// 4.35): that exercises chained re-entry and probes answered without a
	// solve inside the search, which TestControllerWarmByteIdenticalRecords
	// depends on. Degraded
	// (RET-infeasible) epochs are covered by fault_test.go; log noise from
	// the disruption epochs is discarded.
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, K: 3, Policy: policy, BMax: 5,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := func() {
		if p, ok := c.planner.(*maxThroughputPlanner); ok && coldCarry {
			p.carry = schedule.Stage2Carry{}
		}
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30 && !c.Idle(); i++ {
		cold()
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		cold()
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

// statsBytes renders epoch stats with exact float formatting.
func statsBytes(stats []EpochStat) string {
	s := ""
	for _, st := range stats {
		s += fmt.Sprintf("t=%b active=%d adm=%d rej=%d sched=%b cap=%b util=%b deg=%v tier=%q\n",
			st.Time, st.ActiveJobs, st.Admitted, st.Rejected, st.Scheduled, st.Capacity, st.Utilization, st.Degraded, st.Tier)
	}
	return s
}

// TestControllerWarmByteIdenticalRecords runs the fault scenario twice per
// policy and requires every record and every epoch stat bit-identical
// across the two runs, or WAL replay would diverge. Under PolicyRET, whose
// searches chain warm-started probes within each epoch, the epochs'
// searches must answer some probe by a chained re-entry (an lp warm-start
// hit) or, with no solve at all, by a plan's window fit or the interval
// bound. Under
// PolicyMaxThroughput, whose stage-2 solves start from the previous
// solve's bases (schedule.Stage2Carry), the first run must start some
// stage-2 solve warm, and the second is the replay of its events into a
// controller whose carry is empty at every solve: the carry may move
// pivots, never a byte of the output.
func TestControllerWarmByteIdenticalRecords(t *testing.T) {
	compare := func(t *testing.T, firstRecs, againRecs []Record, firstStats, againStats []EpochStat) {
		t.Helper()
		if len(firstRecs) == 0 {
			t.Fatal("scenario produced no records")
		}
		if fb, ab := recordsBytes(firstRecs), recordsBytes(againRecs); fb != ab {
			t.Errorf("records differ between two runs:\nfirst:\n%s\nagain:\n%s", fb, ab)
		}
		if fb, ab := statsBytes(firstStats), statsBytes(againStats); fb != ab {
			t.Errorf("epoch stats differ between two runs:\nfirst:\n%s\nagain:\n%s", fb, ab)
		}
	}
	t.Run("ret", func(t *testing.T) {
		hitsBefore := telemetry.Default().Counter("lp_warmstart_hits_total", "").Value()
		prunedBefore := telemetry.Default().Counter("lp_probe_pruned_total", "").Value()
		firstRecs, firstStats := runScenario(t, PolicyRET, false)
		hits := telemetry.Default().Counter("lp_warmstart_hits_total", "").Value()
		pruned := telemetry.Default().Counter("lp_probe_pruned_total", "").Value()
		if hits == hitsBefore && pruned == prunedBefore {
			t.Error("the RET searches engaged neither the lp warm-start path nor a probe answered without a solve")
		}
		againRecs, againStats := runScenario(t, PolicyRET, false)
		compare(t, firstRecs, againRecs, firstStats, againStats)
	})
	t.Run("max_throughput", func(t *testing.T) {
		hits := telemetry.Default().Counter("lp_warmstart_hits_total", "")
		before := hits.Value()
		firstRecs, firstStats := runScenario(t, PolicyMaxThroughput, false)
		if hits.Value() == before {
			t.Error("no stage-2 solve started from the carry")
		}
		againRecs, againStats := runScenario(t, PolicyMaxThroughput, true)
		compare(t, firstRecs, againRecs, firstStats, againStats)
	})
}

// TestControllerPathCacheReuse checks that epoch-over-epoch instance
// builds stop recomputing path sets, including across a repeated failure
// of the same link.
func TestControllerPathCacheReuse(t *testing.T) {
	g := netgraph.Line(4, 2, 10)
	hits := telemetry.Default().Counter("schedule_pathcache_hits_total", "")
	misses := telemetry.Default().Counter("schedule_pathcache_misses_total", "")
	hits0, misses0 := hits.Value(), misses.Value()
	c := newCtrl(t, g, PolicyMaxThroughput)
	for i := 0; i < 3; i++ {
		if err := c.Submit(job.Job{
			ID: job.ID(i + 1), Src: 0, Dst: 3, Size: 2,
			Start: float64(i), End: float64(i) + 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if hits.Value() == hits0 {
		t.Fatalf("no path-cache hits across epochs (misses=%d)", misses.Value()-misses0)
	}
	// Fail and repair the same link twice: the second failure epoch must
	// not add misses beyond the first.
	var down netgraph.EdgeID
	found := false
	for _, e := range g.Edges() {
		if e.From == 1 && e.To == 2 {
			down, found = e.ID, true
			break
		}
	}
	if !found {
		t.Fatal("no 1->2 edge in line graph")
	}
	cycle := func() {
		if err := c.LinkDown(down, c.Now()); err != nil {
			t.Fatal(err)
		}
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := c.LinkUp(down, c.Now()); err != nil {
			t.Fatal(err)
		}
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	missesAfterFirst := misses.Value()
	cycle()
	missesAfterSecond := misses.Value()
	if missesAfterSecond != missesAfterFirst {
		t.Errorf("repeated failure of the same link recomputed paths: misses %d -> %d",
			missesAfterFirst, missesAfterSecond)
	}
}
