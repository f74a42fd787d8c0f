package lightpath

import (
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/timeslice"
)

func buildAssignment(t *testing.T) *schedule.Assignment {
	t.Helper()
	g := netgraph.Line(3, 2, 10)
	grid, err := timeslice.Uniform(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 2, Size: 2, Start: 0, End: 2},
		{ID: 2, Src: 0, Dst: 1, Size: 1, Start: 0, End: 2},
	}
	inst, err := schedule.NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := schedule.NewAssignment(inst)
	a.X[0][0][0] = 1 // job 1: one wavelength end-to-end on slice 0
	a.X[0][0][1] = 1 // and slice 1
	a.X[1][0][0] = 1 // job 2: one wavelength on the first hop, slice 0
	return a
}

func TestAssignWithConversion(t *testing.T) {
	a := buildAssignment(t)
	plan, err := Assign(a, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unassigned) != 0 {
		t.Fatalf("unassigned channels: %d", len(plan.Unassigned))
	}
	if len(plan.Channels) != 3 {
		t.Fatalf("channels = %d, want 3", len(plan.Channels))
	}
	if plan.BlockingRate() != 0 {
		t.Errorf("blocking rate %g", plan.BlockingRate())
	}
	for _, ch := range plan.Channels {
		if len(ch.Lambdas) != len(ch.Edges) {
			t.Errorf("channel %+v: lambda count mismatch", ch)
		}
	}
}

func TestAssignContinuity(t *testing.T) {
	a := buildAssignment(t)
	plan, err := Assign(a, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unassigned) != 0 {
		t.Fatalf("unassigned channels: %d", len(plan.Unassigned))
	}
	// No two channels share a wavelength on the same edge and slice.
	type key struct {
		e   netgraph.EdgeID
		j   int
		lam int
	}
	seen := map[key]bool{}
	for _, ch := range plan.Channels {
		if ch.Lambda < 0 {
			t.Fatalf("continuity channel without common lambda: %+v", ch)
		}
		for _, e := range ch.Edges {
			k := key{e, ch.Slice, ch.Lambda}
			if seen[k] {
				t.Fatalf("wavelength clash at %+v", k)
			}
			seen[k] = true
		}
	}
	by := plan.ChannelsBySlice()
	if len(by[0]) != 2 || len(by[1]) != 1 {
		t.Errorf("per-slice channels %d/%d, want 2/1", len(by[0]), len(by[1]))
	}
}

func TestAssignRejectsFractional(t *testing.T) {
	a := buildAssignment(t)
	a.X[0][0][0] = 0.5
	if _, err := Assign(a, true); err == nil {
		t.Error("fractional assignment accepted")
	}
}

func TestAssignRejectsOverCapacity(t *testing.T) {
	a := buildAssignment(t)
	a.X[0][0][0] = 5 // capacity 2
	if _, err := Assign(a, true); err == nil {
		t.Error("over-capacity assignment accepted")
	}
}

func TestContinuityBlocking(t *testing.T) {
	// The classic wavelength-continuity counterexample: three 2-hop paths
	// chasing each other around a directed 3-cycle. Each directed edge
	// carries exactly 2 paths (load = W = 2) so conversion succeeds, but
	// the conflict graph is a triangle needing 3 colors, so one path
	// cannot be colored under continuity.
	g := netgraph.Ring(3, 2, 10)
	grid, err := timeslice.Uniform(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 2, Size: 1, Start: 0, End: 1},
		{ID: 2, Src: 1, Dst: 0, Size: 1, Start: 0, End: 1},
		{ID: 3, Src: 2, Dst: 1, Size: 1, Start: 0, End: 1},
	}
	inst, err := schedule.NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Use each job's 2-hop path (index 1; index 0 is the direct edge):
	// 0→1→2, 1→2→0, 2→0→1.
	for k := 0; k < 3; k++ {
		if got := len(inst.JobPaths[k]); got != 2 {
			t.Fatalf("job %d: %d paths, want 2", k, got)
		}
		if len(inst.JobPaths[k][1].Edges) != 2 {
			t.Fatalf("job %d: path 1 has %d hops, want 2", k, len(inst.JobPaths[k][1].Edges))
		}
	}
	a := schedule.NewAssignment(inst)
	a.X[0][1][0] = 1
	a.X[1][1][0] = 1
	a.X[2][1][0] = 1

	conv, err := Assign(a, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Unassigned) != 0 {
		t.Fatalf("conversion blocked: %d", len(conv.Unassigned))
	}
	noConv, err := Assign(a, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(noConv.Unassigned) != 1 {
		t.Fatalf("expected exactly 1 blocked channel under continuity, got %d", len(noConv.Unassigned))
	}
	if noConv.BlockingRate() == 0 {
		t.Error("blocking rate should be positive")
	}
}
