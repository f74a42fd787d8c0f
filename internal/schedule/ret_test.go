package schedule

import (
	"math"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/workload"
)

func TestBuildRETInstance(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Horizon must cover (1+2)·4 = 12.
	if inst.Grid.End() < 12 {
		t.Errorf("grid end %g, want ≥ 12", inst.Grid.End())
	}
	if _, err := BuildRETInstance(g, jobs, 0, 4, 2); err == nil {
		t.Error("zero slice length accepted")
	}
}

func TestRETNotOverloaded(t *testing.T) {
	// Demand fits in the original window: b̂ = 0, no extension needed.
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRET(inst, RETConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if res.BHat != 0 {
		t.Errorf("b̂ = %g, want 0", res.BHat)
	}
	if !res.LPDAR.AllDemandsMet() {
		t.Error("LPDAR leaves demands unmet")
	}
	if err := res.LPDAR.VerifyIntegral(1e-9); err != nil {
		t.Error(err)
	}
}

func TestRETOverloadedSingleLink(t *testing.T) {
	// 1 link, 2 wavelengths, window [0,4) ⇒ deliverable 8 in-window; demand
	// 16 needs 8 slices ⇒ b̂ ≈ 1.0 ((1+b)·4 ≥ 8).
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 16, Start: 0, End: 4}}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRET(inst, RETConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if res.BHat < 0.99-0.011 || res.BHat > 1.0+0.011 {
		t.Errorf("b̂ = %g, want ≈ 1.0", res.BHat)
	}
	if !res.LPDAR.AllDemandsMet() {
		t.Error("LPDAR leaves demands unmet")
	}
	// Integer solution on a single path with integer capacities: finish by
	// slice 8 (0-based 7).
	if fs, ok := res.LPDAR.FinishSlice(0); !ok || fs > 7 {
		t.Errorf("finish slice %d ok=%v, want ≤ 7", fs, ok)
	}
	if err := res.LPDAR.VerifyCapacity(1e-6); err != nil {
		t.Error(err)
	}
	if err := res.LPDAR.VerifyWindows(1e-9); err != nil {
		t.Error(err)
	}
}

func TestRETQuickFinishPacksEarly(t *testing.T) {
	// Quick-Finish must prefer earlier slices: with capacity 2/slice and
	// demand 4 over a long window, the LP should finish by slice 2.
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 10}}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRET(inst, RETConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if fs, ok := res.LP.FinishSlice(0); !ok || fs > 1 {
		t.Errorf("LP finish slice = %d ok=%v, want ≤ 1 (Quick-Finish)", fs, ok)
	}
}

func TestRETMultiJobOverload(t *testing.T) {
	g := netgraph.Ring(6, 2, 10)
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 8, Seed: 4, GBToDemand: 0.15, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRET(inst, RETConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LPDAR.AllDemandsMet() {
		t.Fatal("LPDAR leaves demands unmet")
	}
	if res.LPDAR.FractionFinished() != 1 {
		t.Error("fraction finished != 1 for LPDAR")
	}
	// LP fraction finished is also 1 by construction.
	if res.LP.FractionFinished() != 1 {
		t.Error("fraction finished != 1 for LP")
	}
	// LPD typically finishes almost nothing; at minimum it can never
	// finish more than LPDAR.
	if res.LPD.FractionFinished() > res.LPDAR.FractionFinished() {
		t.Error("LPD finished more than LPDAR")
	}
	// b must be at least b̂ and reached within the round budget.
	if res.B < res.BHat-1e-9 {
		t.Errorf("B = %g below b̂ = %g", res.B, res.BHat)
	}
	if err := res.LPDAR.VerifyCapacity(1e-6); err != nil {
		t.Error(err)
	}
	if err := res.LPDAR.VerifyIntegral(1e-9); err != nil {
		t.Error(err)
	}
	if err := res.LPDAR.VerifyWindows(1e-9); err != nil {
		t.Error(err)
	}
	// Average end time: LP ≤ LPDAR ≤ horizon (LP has no integrality).
	lpEnd, n1 := res.LP.AverageEndTime()
	darEnd, n2 := res.LPDAR.AverageEndTime()
	if n1 != len(jobs) || n2 != len(jobs) {
		t.Errorf("finished counts %d, %d", n1, n2)
	}
	if lpEnd <= 0 || darEnd <= 0 {
		t.Error("non-positive average end times")
	}
}

func TestSubRETFeasibilityMonotone(t *testing.T) {
	// White-box: SUB-RET feasibility must be monotone in b.
	g := netgraph.Line(2, 1, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 6, Start: 0, End: 3}}
	inst, err := BuildRETInstance(g, jobs, 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RETConfig{Solver: solverOpts()}.withDefaults()
	prev := false
	for _, b := range []float64{0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0} {
		feasible, _, _, err := solveSubRET(inst, b, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if prev && !feasible {
			t.Fatalf("feasibility not monotone: b=%g infeasible after a smaller feasible b", b)
		}
		prev = feasible
	}
	if !prev {
		t.Fatal("SUB-RET infeasible even at b=2 (demand 6, capacity 1/slice, 9 slices)")
	}
}

func TestRETInfeasibleBeyondBMax(t *testing.T) {
	// Demand that cannot complete even with the maximal extension must be
	// reported as an error, not silently truncated.
	g := netgraph.Line(2, 1, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 1000, Start: 0, End: 2}}
	inst, err := BuildRETInstance(g, jobs, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveRET(inst, RETConfig{BMax: 1, Solver: solverOpts()}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestAssignmentHelpers(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 7, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}}
	inst, err := BuildRETInstance(g, jobs, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssignment(inst)
	a.X[0][0][0] = 2
	a.X[0][0][1] = 2
	if tr := a.Transferred(0); math.Abs(tr-4) > 1e-12 {
		t.Errorf("Transferred = %g", tr)
	}
	if z := a.Throughput(0); math.Abs(z-1) > 1e-12 {
		t.Errorf("Throughput = %g", z)
	}
	if z, err := a.ThroughputOf(7); err != nil || math.Abs(z-1) > 1e-12 {
		t.Errorf("ThroughputOf = %g, %v", z, err)
	}
	if _, err := a.ThroughputOf(99); err == nil {
		t.Error("unknown job accepted")
	}
	if wt := a.WeightedThroughput(); math.Abs(wt-1) > 1e-12 {
		t.Errorf("WeightedThroughput = %g", wt)
	}
	if c := a.CappedWeightedThroughput(); math.Abs(c-1) > 1e-12 {
		t.Errorf("Capped = %g", c)
	}
	// Over-delivery is capped.
	a.X[0][0][2] = 2
	if c := a.CappedWeightedThroughput(); math.Abs(c-1) > 1e-12 {
		t.Errorf("Capped after over-delivery = %g", c)
	}
	if fs, ok := a.FinishSlice(0); !ok || fs != 1 {
		t.Errorf("FinishSlice = %d, %v", fs, ok)
	}
	if f := a.FractionFinished(); f != 1 {
		t.Errorf("FractionFinished = %g", f)
	}
	avg, n := a.AverageEndTime()
	if n != 1 || math.Abs(avg-2) > 1e-12 { // 1-based slice 2
		t.Errorf("AverageEndTime = %g, %d", avg, n)
	}
	if !a.AllDemandsMet() {
		t.Error("AllDemandsMet false")
	}
	if tc := a.TotalFlowCost(func(j int) float64 { return float64(j + 1) }); math.Abs(tc-(2*1+2*2+2*3)) > 1e-12 {
		t.Errorf("TotalFlowCost = %g", tc)
	}
	// Truncation of fractional values.
	a.X[0][0][0] = 1.7
	tr := a.Truncate()
	if tr.X[0][0][0] != 1 {
		t.Errorf("Truncate 1.7 -> %g", tr.X[0][0][0])
	}
	a.X[0][0][0] = 1.9999999
	tr = a.Truncate()
	if tr.X[0][0][0] != 2 {
		t.Errorf("Truncate snap 1.9999999 -> %g", tr.X[0][0][0])
	}
	a.X[0][0][0] = -0.4
	tr = a.Truncate()
	if tr.X[0][0][0] != 0 {
		t.Errorf("Truncate clamps negatives -> %g", tr.X[0][0][0])
	}
	// Empty assignment fraction.
	empty := &Assignment{Inst: inst, X: nil}
	if empty.FractionFinished() != 1 {
		t.Error("empty assignment fraction != 1")
	}
	if avg, n := NewAssignment(inst).AverageEndTime(); avg != 0 || n != 0 {
		t.Error("unfinished average end time should be 0, 0")
	}
}

func TestVerifyFailures(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 1, End: 3}}
	inst, err := BuildRETInstance(g, jobs, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssignment(inst)
	a.X[0][0][1] = 5 // over capacity (2)
	if err := a.VerifyCapacity(1e-6); err == nil {
		t.Error("capacity violation not detected")
	}
	b := NewAssignment(inst)
	b.X[0][0][0] = 1 // before the window (starts at slice 1)
	if err := b.VerifyWindows(1e-9); err == nil {
		t.Error("window violation not detected")
	}
	c := NewAssignment(inst)
	c.X[0][0][1] = 0.5
	if err := c.VerifyIntegral(1e-9); err == nil {
		t.Error("integrality violation not detected")
	}
}
