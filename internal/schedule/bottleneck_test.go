package schedule

import (
	"math"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

func TestBottleneckSingleLink(t *testing.T) {
	// One saturated link: every in-window slice has shadow price
	// LEN/D = 1/4 (adding one wavelength-slice adds 1 unit, scaled by D).
	g := netgraph.Line(2, 2, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 4}}
	inst, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	bns, s1, err := BottleneckAnalysis(inst, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.ZStar-2) > 1e-6 {
		t.Fatalf("Z* = %g", s1.ZStar)
	}
	// The forward link is tight on all 4 slices.
	if len(bns) != 4 {
		t.Fatalf("bottlenecks = %d, want 4: %+v", len(bns), bns)
	}
	for _, b := range bns {
		if math.Abs(b.ShadowPrice-0.25) > 1e-6 {
			t.Errorf("slice %d: shadow price %g, want 0.25", b.Slice, b.ShadowPrice)
		}
		if g.Edge(b.Edge).From != 0 {
			t.Errorf("bottleneck on the unused reverse edge")
		}
	}
}

func TestBottleneckPredictsZStarGain(t *testing.T) {
	// Empirical validation: raise the top bottleneck's capacity by one
	// wavelength (within its range) and confirm Z* rises by ≈ the price.
	g := netgraph.Ring(6, 2, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 3, Size: 8, Start: 0, End: 4},
		{ID: 2, Src: 1, Dst: 4, Size: 6, Start: 0, End: 4},
	}
	inst, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	bns, s1, err := BottleneckAnalysis(inst, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(bns) == 0 {
		t.Skip("no binding capacity constraints in this instance")
	}
	// Find a bottleneck whose range admits a ±1 wavelength change and
	// verify the dual's prediction empirically.
	tested := false
	for _, b := range bns {
		cur := inst.Capacity(b.Edge, b.Slice)
		inRange := func(c int) bool {
			return float64(c) >= b.CapRange.Lo-1e-9 && float64(c) <= b.CapRange.Hi+1e-9
		}
		var delta int
		switch {
		case inRange(cur + 1):
			delta = 1
		case inRange(cur-1) && cur > 0:
			delta = -1
		default:
			continue
		}
		inst2, err := NewInstance(g, grid, jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst2.SetCapacity(b.Edge, b.Slice, cur+delta); err != nil {
			t.Fatal(err)
		}
		s2, err := SolveStage1(inst2, solverOpts())
		if err != nil {
			t.Fatal(err)
		}
		gain := s2.ZStar - s1.ZStar
		want := float64(delta) * b.ShadowPrice
		if math.Abs(gain-want) > 1e-6 {
			t.Errorf("edge %d slice %d: Z* change %g, shadow price predicted %g", b.Edge, b.Slice, gain, want)
		}
		tested = true
		break
	}
	if !tested {
		t.Skip("no bottleneck admits a ±1 wavelength probe within its range")
	}
}

func TestBottleneckUncongested(t *testing.T) {
	// Vastly over-provisioned network: Z* limited by... capacity is always
	// the binding structure in the MCF (Z can grow until some link is
	// tight), so bottlenecks exist even when Z* > 1 — but each price must
	// be positive and each listed row genuinely tight.
	g := netgraph.Line(2, 8, 10)
	grid, _ := timeslice.Uniform(0, 1, 4)
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 1, Size: 1, Start: 0, End: 4}}
	inst, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	bns, s1, err := BottleneckAnalysis(inst, solverOpts())
	if err != nil {
		t.Fatal(err)
	}
	load := s1.Frac.EdgeLoads()
	for _, b := range bns {
		if b.ShadowPrice <= 0 {
			t.Errorf("non-positive shadow price %g", b.ShadowPrice)
		}
		capE := float64(inst.Capacity(b.Edge, b.Slice))
		if load[b.Edge][b.Slice] < capE-1e-6 {
			t.Errorf("edge %d slice %d listed as bottleneck but load %g < cap %g",
				b.Edge, b.Slice, load[b.Edge][b.Slice], capE)
		}
	}
}
