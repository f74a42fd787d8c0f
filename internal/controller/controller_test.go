package controller

import (
	"math"
	"strings"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
)

func newCtrl(t *testing.T, g *netgraph.Graph, policy Policy) *Controller {
	t.Helper()
	c, err := New(g, Config{Tau: 1, SliceLen: 1, K: 2, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	bad := []Config{
		{Tau: 1, SliceLen: 0},
		{Tau: 0, SliceLen: 1},
		{Tau: 0.5, SliceLen: 1}, // τ < slice
		{Tau: 1.5, SliceLen: 1}, // not a multiple
		{Tau: -1, SliceLen: 1},
		{Tau: 1, SliceLen: math.NaN()},
		{Tau: math.NaN(), SliceLen: 1},
		{Tau: math.Inf(1), SliceLen: 1},
		{Tau: math.Inf(1), SliceLen: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := New(g, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(g, Config{Tau: 3, SliceLen: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSingleJobCompletes(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	j := job.Job{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if !r.Completed || !r.MetDeadline {
		t.Errorf("record %+v: want completed and on time", r)
	}
	if math.Abs(r.Delivered-4) > 1e-9 {
		t.Errorf("delivered %g, want 4", r.Delivered)
	}
	// Capacity 2/slice ⇒ finish at t=2.
	if math.Abs(r.FinishTime-2) > 1e-9 {
		t.Errorf("finish time %g, want 2", r.FinishTime)
	}
}

func TestSubmitInvalidJob(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	if err := c.Submit(job.Job{ID: 1, Src: 0, Dst: 0, Size: 1, Start: 0, End: 1}); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestHopelessWindowRejected(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	// Window [0, 0.5): shorter than one slice.
	j := job.Job{ID: 1, Src: 0, Dst: 1, Size: 1, Start: 0, End: 0.5}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	recs := c.Records()
	if len(recs) != 1 || !recs[0].Rejected {
		t.Fatalf("records %+v, want one rejection", recs)
	}
}

func TestOverloadReducesDelivery(t *testing.T) {
	// Demand 16 deliverable capacity 8 by the deadline: the job ends
	// incomplete with roughly half delivered under PolicyMaxThroughput.
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	j := job.Job{ID: 1, Src: 0, Dst: 1, Size: 16, Start: 0, End: 4}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Completed {
		t.Error("overloaded job reported complete")
	}
	if math.Abs(r.Delivered-8) > 1e-6 {
		t.Errorf("delivered %g, want 8 (full capacity)", r.Delivered)
	}
}

func TestRETPolicyCompletesLate(t *testing.T) {
	// Same overload under PolicyRET: the job completes in full, after the
	// requested end time.
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyRET)
	j := job.Job{ID: 1, Src: 0, Dst: 1, Size: 16, Start: 0, End: 4}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d (idle=%v)", len(recs), c.Idle())
	}
	r := recs[0]
	if !r.Completed {
		t.Fatalf("RET job incomplete: %+v", r)
	}
	if r.MetDeadline {
		t.Error("deadline reported met despite overload")
	}
	if math.Abs(r.Delivered-16) > 1e-6 {
		t.Errorf("delivered %g, want 16", r.Delivered)
	}
	// Minimum possible finish: 16 units at 2/slice ⇒ t=8.
	if r.FinishTime < 8-1e-9 {
		t.Errorf("finish time %g impossibly early", r.FinishTime)
	}
}

func TestLateArrivalsScheduledNextEpoch(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	// First epoch with nothing.
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	j := job.Job{ID: 1, Arrival: 1, Src: 0, Dst: 1, Size: 2, Start: 1, End: 4}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	recs := c.Records()
	if len(recs) != 1 || !recs[0].Completed || !recs[0].MetDeadline {
		t.Fatalf("records %+v", recs)
	}
}

func TestMultipleJobsSummary(t *testing.T) {
	g := netgraph.Ring(4, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 2, Size: 3, Start: 0, End: 4},
		{ID: 2, Src: 1, Dst: 3, Size: 3, Start: 0, End: 4},
		{ID: 3, Src: 2, Dst: 0, Size: 3, Start: 0, End: 5},
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	s := Summarize(c.Records())
	if s.Total != 3 {
		t.Fatalf("summary total %d", s.Total)
	}
	if s.Completed != 3 || s.MetDeadline != 3 {
		t.Errorf("summary %+v, want all complete on time", s)
	}
	if math.Abs(s.Delivered-9) > 1e-6 {
		t.Errorf("delivered %g, want 9", s.Delivered)
	}
	if s.AvgFinish <= 0 {
		t.Error("AvgFinish not computed")
	}
}

func TestSortRecordsByFinish(t *testing.T) {
	recs := []Record{{FinishTime: 3}, {FinishTime: 1}, {FinishTime: 2}}
	SortRecordsByFinish(recs)
	if recs[0].FinishTime != 1 || recs[2].FinishTime != 3 {
		t.Errorf("sorted %+v", recs)
	}
}

func TestEpochStats(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	if err := c.Submit(job.Job{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.EpochStats()
	if len(stats) == 0 {
		t.Fatal("no epoch stats")
	}
	first := stats[0]
	if first.Admitted != 1 || first.ActiveJobs != 1 {
		t.Errorf("first epoch %+v", first)
	}
	if first.Utilization <= 0 || first.Utilization > 1+1e-9 {
		t.Errorf("utilization %g outside (0, 1]", first.Utilization)
	}
	// Single 0→1 job: the forward edge is saturated (2 wavelengths used
	// of 2), the reverse edge idle ⇒ utilization 0.5.
	if math.Abs(first.Utilization-0.5) > 1e-9 {
		t.Errorf("utilization %g, want 0.5", first.Utilization)
	}
	if first.Scheduled <= 0 || first.Capacity <= 0 {
		t.Errorf("usage %g/%g", first.Scheduled, first.Capacity)
	}
}

// TestPolicyRejectTrimsOverload: capacity 2/slice over a window of 4 slices
// is 8 units deliverable, and three equal jobs arrive at once asking for
// more: the third is rejected. What the admitted pair then gets is the
// stage-2 LP's to say, and it only promises the fairness floor
// Z_i ≥ (1 − α)·Z*.
//
// With 3-unit jobs Z* is 8/6 and the floor 0.9·8/6 = 1.2 > 1: every optimal
// vertex carries both jobs in full with a wavelength-slice each to spare for
// the truncation, so both complete on time whatever the solver does. (3.5
// units would put the floor above 1 too, but a job then needs 4 whole
// wavelength-slices and the pair all 8: one lost to rounding in any epoch
// and a job ends half a unit short.)
//
// With 4-unit jobs Z* is exactly 1 and the floor 0.9. Z_i has no upper bound,
// so (4.4, 3.6) is as optimal as (4, 4): one job may be planned past its
// demand while the other stops at 3.6, which truncates to 3 of 4 units. The
// all-artificial pivot path used to land on (4, 4) and this test used to pin
// that; the canonical vertex does not, and neither does any other path.
// Only the floor is asserted here. Capping Z_i at the remaining demand
// (DESIGN §14, the Z_i cap; ROADMAP item 18) would restore 8 of 8: this is its
// regression case.
func TestPolicyRejectTrimsOverload(t *testing.T) {
	run := func(t *testing.T, size float64) Summary {
		t.Helper()
		g := netgraph.Line(2, 2, 10)
		c, err := New(g, Config{Tau: 1, SliceLen: 1, K: 2, Policy: PolicyReject})
		if err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 3; id++ {
			if err := c.Submit(job.Job{ID: job.ID(id), Arrival: 0, Src: 0, Dst: 1, Size: size, Start: 0, End: 4}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8 && !c.Idle(); i++ {
			if err := c.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		s := Summarize(c.Records())
		if s.Rejected != 1 {
			t.Fatalf("rejected %d, want 1 (summary %+v)", s.Rejected, s)
		}
		if exp, ok := c.Explain(1); ok {
			for _, ev := range exp.Events {
				// Where a plan came from is a ColumnGen daemon's question.
				if ev.Kind == AuditPlanned && strings.Contains(ev.Detail, "plan=") {
					t.Errorf("planned event %q of an enumeration daemon names a plan source", ev.Detail)
				}
			}
		}
		for _, r := range c.Records() {
			// The floor in whole wavelength-slices: (1 − α)·Z*·D with Z* ≥ 1.
			if floor := math.Floor(0.9 * size); !r.Rejected && r.Delivered < floor-1e-6 {
				t.Errorf("job %d delivered %g, under the fairness floor %g", r.Job.ID, r.Delivered, floor)
			}
		}
		return s
	}
	t.Run("floor_above_demand", func(t *testing.T) {
		s := run(t, 3)
		if s.Completed != 2 || s.MetDeadline != 2 {
			t.Fatalf("completed %d / on-time %d, want 2/2", s.Completed, s.MetDeadline)
		}
		if math.Abs(s.Delivered-6) > 1e-6 {
			t.Errorf("delivered %g, want 6", s.Delivered)
		}
	})
	t.Run("floor_below_demand", func(t *testing.T) {
		s := run(t, 4)
		if s.Completed < 1 || s.Delivered < 7-1e-6 || s.Delivered > 8+1e-6 {
			t.Fatalf("completed %d, delivered %g, want at least one job and 7 to 8 units", s.Completed, s.Delivered)
		}
	})
}

func TestPolicyRejectAdmitsEverythingWhenFeasible(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c, err := New(g, Config{Tau: 1, SliceLen: 1, K: 2, Policy: PolicyReject})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := c.Submit(job.Job{ID: job.ID(i), Src: 0, Dst: 1, Size: 3, Start: 0, End: 4}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	s := Summarize(c.Records())
	if s.Rejected != 0 || s.Completed != 2 || s.MetDeadline != 2 {
		t.Fatalf("summary %+v", s)
	}
}

func TestRETPolicyRenegotiationPersists(t *testing.T) {
	// Two jobs share one link under heavy overload. PolicyRET must extend
	// effective deadlines at the first epoch and keep honoring them in
	// later epochs (jobs stay active past their requested ends, and both
	// eventually complete in full).
	g := netgraph.Line(2, 1, 10)
	c, err := New(g, Config{Tau: 1, SliceLen: 1, K: 1, Policy: PolicyRET, BMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 1, Size: 6, Start: 0, End: 3},
		{ID: 2, Src: 0, Dst: 1, Size: 6, Start: 0, End: 3},
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Idle() {
		t.Fatal("controller did not drain")
	}
	s := Summarize(c.Records())
	if s.Completed != 2 {
		t.Fatalf("completed %d, want 2 (records %+v)", s.Completed, c.Records())
	}
	if s.MetDeadline != 0 {
		t.Errorf("deadlines met %d, want 0 under overload", s.MetDeadline)
	}
	if math.Abs(s.Delivered-12) > 1e-6 {
		t.Errorf("delivered %g, want 12", s.Delivered)
	}
	// Capacity 1/slice: 12 units take ≥ 12 slices.
	for _, r := range c.Records() {
		if r.FinishTime < 6-1e-9 {
			t.Errorf("job %d finished impossibly early at %g", r.Job.ID, r.FinishTime)
		}
	}
}
