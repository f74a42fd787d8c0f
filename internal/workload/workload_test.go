package workload

import (
	"math"
	"testing"

	"wavesched/internal/netgraph"
)

func TestGenerateBasics(t *testing.T) {
	g := netgraph.Ring(8, 2, 10)
	jobs, err := Generate(g, Config{Jobs: 100, Seed: 1, StartSpread: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 100 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for _, j := range jobs {
		if j.Src == j.Dst {
			t.Fatalf("job %d: src == dst", j.ID)
		}
		if j.Size < 1 || j.Size > 100 {
			t.Fatalf("job %d: size %g outside [1, 100]", j.ID, j.Size)
		}
		if j.Start < j.Arrival {
			t.Fatalf("job %d: starts before arrival", j.ID)
		}
		if j.End <= j.Start {
			t.Fatalf("job %d: empty window", j.ID)
		}
		w := j.End - j.Start
		if w < 5-1e-9 || w > 10+1e-9 { // default MinWindow=MaxWindow/2=5
			t.Fatalf("job %d: window %g outside [5, 10]", j.ID, w)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := netgraph.Ring(6, 2, 10)
	a, err := Generate(g, Config{Jobs: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, Config{Jobs: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between same-seed runs", i)
		}
	}
	c, err := Generate(g, Config{Jobs: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGeneratePoissonArrivals(t *testing.T) {
	g := netgraph.Ring(6, 2, 10)
	jobs, err := Generate(g, Config{Jobs: 200, Seed: 3, ArrivalRate: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals must be non-decreasing and roughly rate 2.
	prev := 0.0
	for _, j := range jobs {
		if j.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = j.Arrival
	}
	mean := prev / 200 // ≈ 1/rate = 0.5
	if mean < 0.3 || mean > 0.8 {
		t.Errorf("mean interarrival %g, want ≈0.5", mean)
	}
}

func TestGenerateErrors(t *testing.T) {
	g := netgraph.Ring(6, 2, 10)
	single := netgraph.New("one")
	single.AddNode("a", 0, 0)
	if _, err := Generate(single, Config{Jobs: 1}); err == nil {
		t.Error("1-node graph accepted")
	}
	if _, err := Generate(g, Config{Jobs: -1}); err == nil {
		t.Error("negative job count accepted")
	}
	if _, err := Generate(g, Config{Jobs: 1, SizeMinGB: 10, SizeMaxGB: 5}); err == nil {
		t.Error("inverted size range accepted")
	}
	if _, err := Generate(g, Config{Jobs: 1, MinWindow: 5, MaxWindow: 2}); err == nil {
		t.Error("inverted window range accepted")
	}
}

func TestGBToDemandFactor(t *testing.T) {
	// 10 Gb/s per wavelength, 8-second slices: 1 GB = 8 Gb = 0.1 demand
	// units (one wavelength moves 80 Gb per slice).
	f := GBToDemandFactor(10, 8)
	if math.Abs(f-0.1) > 1e-12 {
		t.Errorf("factor = %g, want 0.1", f)
	}
	if GBToDemandFactor(0, 5) != 1 || GBToDemandFactor(5, 0) != 1 {
		t.Error("degenerate inputs should return 1")
	}
}
