package schedule

import (
	"math"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

func TestTimeVaryingCapacity(t *testing.T) {
	// Single link, 2 wavelengths, 4 slices; slice 1 is a maintenance
	// window with capacity 0, so at most 6 units fit.
	g := netgraph.Line(2, 2, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 6, Start: 0, End: 4}}
	inst, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Edge 0 is 0→1 (the job's only path).
	if err := inst.SetCapacity(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if inst.Capacity(0, 1) != 0 || inst.Capacity(0, 0) != 2 {
		t.Fatalf("capacity override not applied: %d / %d", inst.Capacity(0, 1), inst.Capacity(0, 0))
	}

	s1, err := SolveStage1(inst, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Deliverable: slices 0, 2, 3 × 2 wavelengths = 6 ⇒ Z* = 1.
	if math.Abs(s1.ZStar-1) > 1e-6 {
		t.Errorf("Z* = %g, want 1 with the maintenance window", s1.ZStar)
	}

	res, err := MaxThroughput(inst, Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing may be scheduled in the maintenance slice, including by the
	// LPDAR greedy pass.
	for _, a := range []*Assignment{res.LP, res.LPD, res.LPDAR} {
		if err := a.VerifyCapacity(1e-6); err != nil {
			t.Error(err)
		}
		if a.X[0][0][1] > 1e-9 {
			t.Errorf("flow %g scheduled during the maintenance window", a.X[0][0][1])
		}
	}
}

func TestSetCapacityValidation(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	grid, _ := timeslice.Uniform(0, 1, 2)
	inst, err := NewInstance(g, grid, []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 1, Start: 0, End: 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetCapacity(99, 0, 1); err == nil {
		t.Error("unknown edge accepted")
	}
	if err := inst.SetCapacity(0, 99, 1); err == nil {
		t.Error("out-of-grid slice accepted")
	}
	if err := inst.SetCapacity(0, 0, -1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestWeightFunctions(t *testing.T) {
	big := job.Job{ID: 1, Size: 10}
	small := job.Job{ID: 2, Size: 2}
	if WeightBySize(big) != 10 || WeightBySize(small) != 2 {
		t.Error("WeightBySize")
	}
	if WeightByInverseSize(big) != 0.1 || WeightByInverseSize(job.Job{Size: 0}) != 0 {
		t.Error("WeightByInverseSize")
	}
	if WeightUniform(big) != 1 {
		t.Error("WeightUniform")
	}
	imp := WeightByImportance(map[job.ID]float64{1: 5})
	if imp(big) != 5 || imp(small) != 1 {
		t.Error("WeightByImportance")
	}
}

func TestInverseSizeWeightFavorsSmallJobs(t *testing.T) {
	// One link, capacity for only part of the demand: size weighting
	// favors the big job, inverse-size weighting favors the small one.
	g := netgraph.Line(2, 1, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4},
		{ID: 2, Src: 0, Dst: 1, Size: 2, Start: 0, End: 4},
	}
	run := func(w WeightFunc) *Result {
		inst, err := NewInstance(g, grid, jobs, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MaxThroughput(inst, Config{Alpha: 0.99, Weight: w, Solver: solverOpts()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bySize := run(WeightBySize)
	byInv := run(WeightByInverseSize)
	// The small job's LP throughput must be at least as good under
	// inverse-size weighting.
	if byInv.LP.Throughput(1) < bySize.LP.Throughput(1)-1e-6 {
		t.Errorf("inverse-size weighting did not favor the small job: %g vs %g",
			byInv.LP.Throughput(1), bySize.LP.Throughput(1))
	}
	if byInv.LP.Throughput(1) < 1-1e-6 {
		t.Errorf("small job should complete under inverse weighting, Z=%g", byInv.LP.Throughput(1))
	}
}

func TestRETExtendsEndTimesFromOrigin(t *testing.T) {
	// A job starting late: end-time extension stretches its deadline from
	// the scheduling origin, so a small b buys several slices.
	g := netgraph.Line(2, 1, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 6, Start: 8, End: 11}}
	inst, err := BuildRETInstance(g, jobs, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 1/slice from slice 8: need 6 slices, window has 3.
	// (1+b)·11 ≥ 14 ⇒ b ≥ 3/11 ≈ 0.273.
	res, err := SolveRET(inst, RETConfig{Solver: solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LPDAR.AllDemandsMet() {
		t.Fatal("demands unmet")
	}
	if math.Abs(res.BHat-3.0/11) > 0.02 {
		t.Errorf("end-times b̂ = %g, want ≈ 0.273", res.BHat)
	}
}
