package controller

import (
	"errors"
	"math"
	"testing"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
)

// faultDiamond builds 0 -> {1, 2} -> 3: two node-disjoint two-hop routes
// with w wavelengths per link.
func faultDiamond(t *testing.T, w int) *netgraph.Graph {
	t.Helper()
	g := netgraph.New("diamond")
	a := g.AddNode("a", 0, 0)
	u := g.AddNode("u", 1, 1)
	l := g.AddNode("l", 1, -1)
	b := g.AddNode("b", 2, 0)
	for _, pair := range [][2]netgraph.NodeID{{a, u}, {u, b}, {a, l}, {l, b}} {
		if err := g.AddPair(pair[0], pair[1], w, 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func drain(t *testing.T, c *Controller, n int) {
	t.Helper()
	for i := 0; i < n && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLinkDownValidation(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c := newCtrl(t, g, PolicyMaxThroughput)
	if err := c.LinkDown(99, 1); err == nil {
		t.Error("unknown edge accepted by LinkDown")
	}
	if err := c.LinkUp(-1, 1); err == nil {
		t.Error("negative edge accepted by LinkUp")
	}
	// Down twice and up on a healthy link are no-ops, not errors.
	if err := c.LinkDown(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.LinkDown(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.DownLinks(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("DownLinks = %v, want [0]", got)
	}
	if err := c.LinkUp(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.LinkUp(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.DownLinks(); len(got) != 0 {
		t.Fatalf("DownLinks = %v, want empty", got)
	}
	// An event dated before an applied one is refused, repair or failure,
	// no-op or not.
	for _, ev := range []func(netgraph.EdgeID, float64) error{c.LinkDown, c.LinkUp} {
		if err := ev(0, 2); !errors.Is(err, ErrStaleEvent) {
			t.Errorf("event at t=2 after one at t=3: err %v, want ErrStaleEvent", err)
		}
	}

	// A failure dated before transfers already credited would retire the
	// job at that instant with bytes it had not yet received.
	c, err := New(netgraph.Line(2, 1, 10), Config{Tau: 4, SliceLen: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(job.Job{ID: 1, Src: 0, Dst: 1, Size: 6, Start: 0, End: 12}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.LinkDown(0, 1); !errors.Is(err, ErrStaleEvent) {
		t.Fatalf("failure at t=1 after the epoch at t=4: err %v, want ErrStaleEvent", err)
	}
	if len(c.DownLinks()) != 0 || len(c.Disruptions()) != 0 {
		t.Errorf("refused event applied: down %v, disruptions %v", c.DownLinks(), c.Disruptions())
	}
	if err := c.LinkDown(0, 4); err != nil {
		t.Fatalf("failure at the last epoch instant: %v", err)
	}
}

// A mid-transfer job whose committed flow crosses a failed link is
// rerouted onto the surviving branch and still finishes on time when the
// residual capacity suffices.
func TestLinkDownReroutesOnTime(t *testing.T) {
	g := faultDiamond(t, 1)
	c, err := New(g, Config{Tau: 8, SliceLen: 1, K: 2, Policy: PolicyMaxThroughput})
	if err != nil {
		t.Fatal(err)
	}
	j := job.Job{ID: 1, Src: 0, Dst: 3, Size: 4, Start: 0, End: 8}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	// Find a branch the committed plan actually routes future flow over
	// (the solver is deterministic; the plan may use either or both), and
	// fail its first hop at t = 0.5.
	cm := c.commit
	if cm == nil {
		t.Fatal("no commitment after the first epoch")
	}
	var dead netgraph.EdgeID = -1
	for p := range cm.plan.X[0] {
		for sl := range cm.plan.X[0][p] {
			if cm.plan.X[0][p][sl] > 1e-9 {
				dead = cm.plan.Inst.JobPaths[0][p].Edges[0]
			}
		}
	}
	if dead < 0 {
		t.Fatal("plan schedules no flow")
	}
	if err := c.LinkDown(dead, 0.5); err != nil {
		t.Fatal(err)
	}
	drain(t, c, 12)

	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if !r.Completed || !r.MetDeadline {
		t.Errorf("record %+v: want completed on time after reroute", r)
	}
	if math.Abs(r.Delivered-4) > 1e-9 {
		t.Errorf("delivered %g, want 4", r.Delivered)
	}
	ds := c.Disruptions()
	if len(ds) != 1 {
		t.Fatalf("disruptions = %+v, want 1", ds)
	}
	if ds[0].JobID != 1 || ds[0].Edge != dead || ds[0].Outcome != RescheduledOnTime {
		t.Errorf("disruption %+v, want job 1 on edge %d rescheduled on time", ds[0], dead)
	}
}

// When the post-failure capacity cannot carry the residual demand by the
// deadline, the job is rescheduled late and expires with partial delivery
// under PolicyMaxThroughput.
func TestLinkDownRescheduledLatePartial(t *testing.T) {
	g := faultDiamond(t, 1)
	c, err := New(g, Config{Tau: 2, SliceLen: 1, K: 2, Policy: PolicyMaxThroughput})
	if err != nil {
		t.Fatal(err)
	}
	// Size 4 over window [0, 2] needs both branches saturated: 2/slice.
	j := job.Job{ID: 7, Src: 0, Dst: 3, Size: 4, Start: 0, End: 2}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// Fail the upper branch's first hop (edge 0 -> 1) mid-slice.
	var dead netgraph.EdgeID = -1
	for _, e := range g.Edges() {
		if e.From == 0 && e.To == 1 {
			dead = e.ID
		}
	}
	if err := c.LinkDown(dead, 0.5); err != nil {
		t.Fatal(err)
	}
	drain(t, c, 6)

	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Completed {
		t.Errorf("record %+v: residual capacity cannot complete the job", r)
	}
	// Slice [0,1) credits only the surviving branch (1 unit); the replan
	// over [1,2) adds at most 1 more.
	if r.Delivered > 2+1e-9 || r.Delivered < 1-1e-9 {
		t.Errorf("delivered %g, want within [1, 2]", r.Delivered)
	}
	ds := c.Disruptions()
	if len(ds) != 1 || ds[0].Outcome != RescheduledLate {
		t.Errorf("disruptions %+v, want one rescheduled-late", ds)
	}
}

// A job whose only route dies mid-transfer is dropped: final record with
// Disrupted set, bytes delivered so far preserved, outcome counted.
func TestLinkDownDropsUnreachable(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c, err := New(g, Config{Tau: 2, SliceLen: 1, K: 2, Policy: PolicyMaxThroughput})
	if err != nil {
		t.Fatal(err)
	}
	j := job.Job{ID: 3, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// Edge 0 is 0 -> 1, the job's only route.
	if err := c.LinkDown(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if !c.Idle() {
		t.Error("controller not idle after its only job was dropped")
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if !r.Disrupted || r.Completed || r.Rejected {
		t.Errorf("record %+v: want a disrupted drop", r)
	}
	if math.Abs(r.FinishTime-1.5) > 1e-9 {
		t.Errorf("finish time %g, want the failure instant 1.5", r.FinishTime)
	}
	// Whole slice [0,1) at rate 2 was delivered before the failure; the
	// straddling slice [1,2) credits nothing (its only path is down).
	if math.Abs(r.Delivered-2) > 1e-9 {
		t.Errorf("delivered %g, want 2", r.Delivered)
	}
	ds := c.Disruptions()
	if len(ds) != 1 || ds[0].Outcome != DisruptedDropped || ds[0].Edge != 0 {
		t.Errorf("disruptions %+v, want one drop on edge 0", ds)
	}
}

// Under PolicyRET a disrupted job is rescheduled with a renegotiated end
// time: it completes in full, late, and is classified rescheduled-late.
func TestRETRescheduledLateCompletes(t *testing.T) {
	g := faultDiamond(t, 1)
	c, err := New(g, Config{Tau: 2, SliceLen: 1, K: 2, Policy: PolicyRET})
	if err != nil {
		t.Fatal(err)
	}
	j := job.Job{ID: 9, Src: 0, Dst: 3, Size: 4, Start: 0, End: 2}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	var dead netgraph.EdgeID = -1
	for _, e := range g.Edges() {
		if e.From == 0 && e.To == 1 {
			dead = e.ID
		}
	}
	if err := c.LinkDown(dead, 0.5); err != nil {
		t.Fatal(err)
	}
	drain(t, c, 20)

	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if !r.Completed || r.MetDeadline {
		t.Errorf("record %+v: want completed late under RET", r)
	}
	if math.Abs(r.Delivered-4) > 1e-9 {
		t.Errorf("delivered %g, want the full 4", r.Delivered)
	}
	if r.FinishTime <= 2+1e-9 {
		t.Errorf("finish time %g, want past the original end 2", r.FinishTime)
	}
	ds := c.Disruptions()
	if len(ds) != 1 || ds[0].Outcome != RescheduledLate {
		t.Errorf("disruptions %+v, want one rescheduled-late", ds)
	}
}

// PolicyReject turns requests away while the only route is down and admits
// an identical request again after the repair.
func TestPolicyRejectReadmitsAfterRepair(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c, err := New(g, Config{Tau: 1, SliceLen: 1, K: 2, Policy: PolicyReject})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil { // empty epoch at t=0
		t.Fatal(err)
	}
	if err := c.LinkDown(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(job.Job{ID: 1, Arrival: 0.6, Src: 0, Dst: 1, Size: 2, Start: 0.6, End: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil { // t=1: no route, rejected
		t.Fatal(err)
	}
	if err := c.LinkUp(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(job.Job{ID: 2, Arrival: 1.6, Src: 0, Dst: 1, Size: 2, Start: 1.6, End: 9}); err != nil {
		t.Fatal(err)
	}
	drain(t, c, 12)

	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %+v, want 2", recs)
	}
	byID := map[job.ID]Record{}
	for _, r := range recs {
		byID[r.Job.ID] = r
	}
	if r := byID[1]; !r.Rejected {
		t.Errorf("job 1 %+v: want rejected while the link was down", r)
	}
	if r := byID[2]; !r.Completed || !r.MetDeadline {
		t.Errorf("job 2 %+v: want completed after the repair", r)
	}
}

// A panicking component inside the policy pipeline (here a hostile stage-2
// weight function) must not kill the epoch: the controller recovers, falls
// back to LPD, and keeps running.
func TestEpochPanicRecoversToLPD(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, K: 2, Policy: PolicyMaxThroughput,
		Weight: func(job.Job) float64 { panic("hostile weight") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(job.Job{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}); err != nil {
		t.Fatal(err)
	}
	drain(t, c, 8)

	stats := c.EpochStats()
	if len(stats) == 0 {
		t.Fatal("no epochs ran")
	}
	if !stats[0].Degraded || stats[0].Tier != TierLPD {
		t.Errorf("epoch 0 stat %+v, want degraded at tier %q", stats[0], TierLPD)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1 (job must be accounted despite the panics)", len(recs))
	}
	if recs[0].Rejected {
		t.Errorf("record %+v: job was admitted, not rejected", recs[0])
	}
}

// A solver wall-clock budget of 1ns fails every tier that solves an LP;
// with nothing to carry, the epoch degrades to idle instead of erroring.
func TestSolverTimeoutDegradesToIdle(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, K: 2, Policy: PolicyMaxThroughput,
		Solver: lp.Options{TimeLimit: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(job.Job{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	stats := c.EpochStats()
	if !stats[0].Degraded || stats[0].Tier != TierIdle {
		t.Errorf("epoch 0 stat %+v, want degraded at tier %q", stats[0], TierIdle)
	}
	drain(t, c, 8)
	recs := c.Records()
	if len(recs) != 1 || recs[0].Completed {
		t.Fatalf("records = %+v, want one expired job", recs)
	}
	if recs[0].Delivered != 0 {
		t.Errorf("delivered %g under an unsolvable budget, want 0", recs[0].Delivered)
	}
}
