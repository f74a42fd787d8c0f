package schedule_test

import (
	"fmt"
	"log"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/timeslice"
)

// Example_maxThroughput runs the paper's two-stage algorithm on a single
// saturated link.
func Example_maxThroughput() {
	g := netgraph.Line(2, 2, 10) // one link pair, 2 wavelengths
	grid, err := timeslice.Uniform(0, 1, 4)
	if err != nil {
		log.Fatal(err)
	}
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4}}
	inst, err := schedule.NewInstance(g, grid, jobs, 2)
	if err != nil {
		log.Fatal(err)
	}
	res, err := schedule.MaxThroughput(inst, schedule.Config{Alpha: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Z* = %.2f\n", res.ZStar)
	fmt.Printf("LPDAR delivers %.0f of %.0f\n", res.LPDAR.Transferred(0), jobs[0].Size)
	// Output:
	// Z* = 1.00
	// LPDAR delivers 8 of 8
}

// Example_ret extends end times until an overloaded transfer completes.
func Example_ret() {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 16, Start: 0, End: 4}}
	inst, err := schedule.BuildRETInstance(g, jobs, 1, 2, 5)
	if err != nil {
		log.Fatal(err)
	}
	res, err := schedule.SolveRET(inst, schedule.RETConfig{BMax: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extension factor 1+b = %.1f\n", 1+res.BHat)
	fmt.Printf("all demands met: %v\n", res.LPDAR.AllDemandsMet())
	// Output:
	// extension factor 1+b = 2.0
	// all demands met: true
}

// Example_admission rejects the request that would break the end-time
// guarantee.
func Example_admission() {
	g := netgraph.Line(2, 2, 10)
	grid, err := timeslice.Uniform(0, 1, 4)
	if err != nil {
		log.Fatal(err)
	}
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 5, Start: 0, End: 4},
		{ID: 2, Arrival: 1, Src: 0, Dst: 1, Size: 5, Start: 1, End: 4},
	}
	res, err := schedule.AdmitPrefix(g, grid, jobs, 2, lp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admitted %d, rejected %d\n", len(res.Admitted), len(res.Rejected))
	// Output:
	// admitted 1, rejected 1
}
