package controller

import (
	"fmt"
	"io"
	"log/slog"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
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

// runScenario drives one PolicyRET controller through a multi-epoch
// overloaded scenario with a mid-run link failure and repair, returning the
// final records and epoch stats.
func runScenario(t *testing.T) ([]Record, []EpochStat) {
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
	// 4.35): that exercises chained re-entry and certificate pruning inside
	// the search, which TestControllerWarmByteIdenticalRecords depends on. Degraded
	// (RET-infeasible) epochs are covered by fault_test.go; log noise from
	// the disruption epochs is discarded.
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, K: 3, Policy: PolicyRET, BMax: 5,
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

// TestControllerWarmByteIdenticalRecords runs the fault scenario twice
// under PolicyRET, whose searches chain warm-started probes within each
// epoch. The epochs' searches must answer some probe by a chained re-entry
// (an lp warm-start hit) or, with no solve at all, by a certificate; and
// every record and every epoch stat must be bit-identical across the two
// runs, or WAL replay would diverge.
func TestControllerWarmByteIdenticalRecords(t *testing.T) {
	t.Run("ret", func(t *testing.T) {
		hitsBefore := telemetry.Default().Counter("lp_warmstart_hits_total", "").Value()
		prunedBefore := telemetry.Default().Counter("lp_probe_pruned_total", "").Value()
		firstRecs, firstStats := runScenario(t)
		if len(firstRecs) == 0 {
			t.Fatal("scenario produced no records")
		}
		hits := telemetry.Default().Counter("lp_warmstart_hits_total", "").Value()
		pruned := telemetry.Default().Counter("lp_probe_pruned_total", "").Value()
		if hits == hitsBefore && pruned == prunedBefore {
			t.Error("the RET searches engaged neither the lp warm-start path nor certificate pruning")
		}
		againRecs, againStats := runScenario(t)
		if fb, ab := recordsBytes(firstRecs), recordsBytes(againRecs); fb != ab {
			t.Errorf("records differ between two runs:\nfirst:\n%s\nagain:\n%s", fb, ab)
		}
		if len(firstStats) != len(againStats) {
			t.Fatalf("epoch count differs: first=%d again=%d", len(firstStats), len(againStats))
		}
		for i := range firstStats {
			if firstStats[i].Scheduled != againStats[i].Scheduled ||
				firstStats[i].Utilization != againStats[i].Utilization ||
				firstStats[i].Tier != againStats[i].Tier {
				t.Errorf("epoch %d stats differ: first=%+v again=%+v", i, firstStats[i], againStats[i])
			}
		}
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
