package schedule

import (
	"errors"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

func TestAdmitAllWhenFeasible(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 1, Size: 3, Start: 0, End: 4},
		{ID: 2, Src: 0, Dst: 1, Size: 3, Start: 0, End: 4},
	}
	res, err := AdmitPrefix(g, grid, jobs, 2, ByRequestTime, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 2 || len(res.Rejected) != 0 {
		t.Fatalf("admitted %d rejected %d, want 2/0", len(res.Admitted), len(res.Rejected))
	}
	if res.ZStar < 1 {
		t.Errorf("Z* = %g, want ≥ 1", res.ZStar)
	}
}

func TestAdmitPrefixRejectsOverload(t *testing.T) {
	// Capacity 8 total; three jobs of size 4: only two fit.
	g := netgraph.Line(2, 2, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4},
		{ID: 2, Arrival: 1, Src: 0, Dst: 1, Size: 4, Start: 1, End: 4},
		{ID: 3, Arrival: 2, Src: 0, Dst: 1, Size: 4, Start: 2, End: 4},
	}
	res, err := AdmitPrefix(g, grid, jobs, 2, ByRequestTime, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 2 {
		t.Fatalf("admitted %d, want 2 (FCFS prefix)", len(res.Admitted))
	}
	if res.Admitted[0].ID != 1 || res.Admitted[1].ID != 2 {
		t.Errorf("admitted %v, want jobs 1, 2", res.Admitted)
	}
	if len(res.Rejected) != 1 || res.Rejected[0].ID != 3 {
		t.Errorf("rejected %v, want job 3", res.Rejected)
	}
	if res.ZStar < 1 {
		t.Errorf("admitted prefix Z* = %g, want ≥ 1", res.ZStar)
	}
	if res.LPSolves == 0 {
		t.Error("no LP solves recorded")
	}
}

func TestAdmitPolicies(t *testing.T) {
	// Capacity fits only one of the two: size ordering decides which.
	g := netgraph.Line(2, 1, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4},
		{ID: 2, Arrival: 0, Src: 0, Dst: 1, Size: 1, Start: 0, End: 4},
	}
	big, err := AdmitPrefix(g, grid, jobs, 2, BySizeDescending, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Admitted) != 1 || big.Admitted[0].ID != 1 {
		t.Errorf("BySizeDescending admitted %v, want job 1", big.Admitted)
	}
	small, err := AdmitPrefix(g, grid, jobs, 2, BySizeAscending, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Smallest-first: job 2 (size 1) then job 1 (size 4); both fit? 1+4=5 >
	// capacity 4 ⇒ only job 2.
	if len(small.Admitted) != 1 || small.Admitted[0].ID != 2 {
		t.Errorf("BySizeAscending admitted %v, want job 2", small.Admitted)
	}
}

func TestAdmitEmpty(t *testing.T) {
	g := netgraph.Line(2, 1, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	res, err := AdmitPrefix(g, grid, nil, 2, ByRequestTime, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 0 || len(res.Rejected) != 0 {
		t.Error("empty input mishandled")
	}
}

func TestAdmitNothingFits(t *testing.T) {
	// One job larger than the whole horizon's capacity: nothing admitted.
	g := netgraph.Line(2, 1, 10)
	grid, _ := timeslice.Uniform(0, 1, 2)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 100, Start: 0, End: 2}}
	res, err := AdmitPrefix(g, grid, jobs, 2, ByRequestTime, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 0 || len(res.Rejected) != 1 {
		t.Errorf("admitted %d rejected %d, want 0/1", len(res.Admitted), len(res.Rejected))
	}
}

// TestLongestFeasiblePrefix checks the footnote-1 search against every
// threshold on short lists, and that an error stops it.
func TestLongestFeasiblePrefix(t *testing.T) {
	for total := 0; total <= 9; total++ {
		for thr := 0; thr <= total; thr++ {
			asked := 0
			n, err := LongestFeasiblePrefix(total, func(n int) (bool, error) {
				asked++
				return n <= thr, nil
			})
			if err != nil || n != thr {
				t.Errorf("total %d threshold %d: got %d, %v", total, thr, n, err)
			}
			if asked > 5 {
				t.Errorf("total %d threshold %d: %d feasibility checks", total, thr, asked)
			}
		}
	}
	boom := errors.New("boom")
	if _, err := LongestFeasiblePrefix(4, func(n int) (bool, error) { return n < 2, boom }); !errors.Is(err, boom) {
		t.Errorf("error not passed up: %v", err)
	}
}
