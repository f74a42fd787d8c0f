package sim

import (
	"math"
	"testing"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/workload"
)

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	q.Schedule(Event{Time: 3, Kind: EventEpoch})
	q.Schedule(Event{Time: 1, Kind: EventEpoch})
	q.Schedule(Event{Time: 2, Kind: EventArrival})
	q.Schedule(Event{Time: 1, Kind: EventArrival}) // same time as epoch: arrival first
	times := []float64{}
	kinds := []EventKind{}
	for {
		e, ok := q.Next()
		if !ok {
			break
		}
		times = append(times, e.Time)
		kinds = append(kinds, e.Kind)
	}
	want := []float64{1, 1, 2, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v", times)
		}
	}
	if kinds[0] != EventArrival || kinds[1] != EventEpoch {
		t.Errorf("same-time ordering: %v", kinds)
	}
	if _, ok := q.Next(); ok {
		t.Error("empty queue returned an event")
	}
	if q.Len() != 0 {
		t.Error("Len after drain")
	}
}

func TestQueueFIFOWithinTies(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 5; i++ {
		q.Schedule(Event{Time: 1, Kind: EventArrival, Job: job.Job{ID: job.ID(i)}})
	}
	for i := 0; i < 5; i++ {
		e, _ := q.Next()
		if e.Job.ID != job.ID(i) {
			t.Fatalf("tie order broken at %d: got %d", i, e.Job.ID)
		}
	}
}

func TestRunSingleJob(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	ctrl, err := controller.New(g, controller.Config{Tau: 1, SliceLen: 1, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}}
	res, err := Run(ctrl, jobs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != 1 || res.Summary.MetDeadline != 1 {
		t.Fatalf("summary %+v", res.Summary)
	}
	if math.Abs(res.Summary.Delivered-4) > 1e-9 {
		t.Errorf("delivered %g", res.Summary.Delivered)
	}
	if res.Epochs == 0 {
		t.Error("no epochs ran")
	}
}

func TestRunStaggeredArrivals(t *testing.T) {
	g := netgraph.Ring(4, 2, 10)
	ctrl, err := controller.New(g, controller.Config{Tau: 1, SliceLen: 1, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 2, Size: 2, Start: 0, End: 5},
		{ID: 2, Arrival: 1.5, Src: 1, Dst: 3, Size: 2, Start: 2, End: 7},
		{ID: 3, Arrival: 3.2, Src: 2, Dst: 0, Size: 2, Start: 3.5, End: 9},
	}
	res, err := Run(ctrl, jobs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != 3 || res.Summary.Completed != 3 {
		t.Fatalf("summary %+v", res.Summary)
	}
	if res.Summary.MetDeadline != 3 {
		t.Errorf("deadlines met %d, want 3", res.Summary.MetDeadline)
	}
}

func TestRunPoissonWorkload(t *testing.T) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 10, LinkPairs: 20, Wavelengths: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 12, Seed: 9, ArrivalRate: 1, GBToDemand: 0.05,
		MinWindow: 4, MaxWindow: 8, StartSpread: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(g, controller.Config{Tau: 2, SliceLen: 1, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctrl, jobs, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != 12 {
		t.Fatalf("total %d, want 12", res.Summary.Total)
	}
	// Under light load with multipath, everything should complete.
	if res.Summary.Completed == 0 {
		t.Error("nothing completed")
	}
	if res.Summary.Delivered <= 0 {
		t.Error("nothing delivered")
	}
}

func TestRunRejectsUsedController(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	ctrl, err := controller.New(g, controller.Config{Tau: 1, SliceLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctrl, nil, 10); err == nil {
		t.Error("used controller accepted")
	}
}

func TestRunMaxTimeCutoff(t *testing.T) {
	g := netgraph.Line(2, 1, 10)
	ctrl, err := controller.New(g, controller.Config{Tau: 1, SliceLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival beyond the cutoff: nothing happens.
	jobs := []job.Job{{ID: 1, Arrival: 50, Src: 0, Dst: 1, Size: 1, Start: 50, End: 55}}
	res, err := Run(ctrl, jobs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != 0 {
		t.Errorf("records %d, want 0 before cutoff", res.Summary.Total)
	}
}
