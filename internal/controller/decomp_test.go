package controller

import (
	"io"
	"log/slog"
	"math"
	"testing"

	"wavesched/internal/netgraph"
	"wavesched/internal/workload"
)

// runScenarioMono mirrors runScenario with the planner's one-block oracle
// under test control.
func runScenarioMono(t *testing.T, policy Policy, mono bool) []Record {
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
		Tau: 1, SliceLen: 1, K: 3, Policy: policy, BMax: 3,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	switch p := c.planner.(type) {
	case *maxThroughputPlanner:
		p.oneBlock = mono
	case *retPlanner:
		p.oneBlock = mono
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
	return c.Records()
}

// TestControllerMonolithicMatchesDecomposed runs the fault scenario with
// decomposition on (the default) and forced off: every job must end in the
// same state with matching delivery and finish times. The controller runs
// the production solver settings (periodic refactorization), so float
// outcomes are compared to LP tolerance, not bit-for-bit; run-to-run
// byte determinism of the decomposed path itself is covered by
// TestControllerWarmByteIdenticalRecords, which now exercises it.
func TestControllerMonolithicMatchesDecomposed(t *testing.T) {
	for _, pol := range []struct {
		name   string
		policy Policy
	}{
		{"ret", PolicyRET},
		{"maxthroughput", PolicyMaxThroughput},
	} {
		t.Run(pol.name, func(t *testing.T) {
			dec := runScenarioMono(t, pol.policy, false)
			mono := runScenarioMono(t, pol.policy, true)
			if len(dec) == 0 {
				t.Fatal("scenario produced no records")
			}
			if len(dec) != len(mono) {
				t.Fatalf("record count differs: decomposed=%d monolithic=%d", len(dec), len(mono))
			}
			for i := range dec {
				d, m := dec[i], mono[i]
				if d.Job.ID != m.Job.ID || d.MetDeadline != m.MetDeadline ||
					d.Completed != m.Completed || d.Rejected != m.Rejected || d.Disrupted != m.Disrupted {
					t.Errorf("record %d outcome differs:\ndecomposed: %+v\nmonolithic: %+v", i, d, m)
					continue
				}
				if math.Abs(d.Delivered-m.Delivered) > 1e-6*(1+math.Abs(m.Delivered)) {
					t.Errorf("record %d delivered differs: decomposed=%v monolithic=%v", i, d.Delivered, m.Delivered)
				}
				if math.Abs(d.FinishTime-m.FinishTime) > 1e-6*(1+math.Abs(m.FinishTime)) {
					t.Errorf("record %d finish time differs: decomposed=%v monolithic=%v", i, d.FinishTime, m.FinishTime)
				}
			}
		})
	}
}
