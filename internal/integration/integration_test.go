// Package integration ties the full pipeline together the way a
// downstream user would: generate a topology, serialize it, draw a
// workload, run the periodic controller simulation and schedule with both
// paper algorithms — verifying cross-module invariants at each step.
package integration

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/sim"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

func TestFullPipelineWaxman(t *testing.T) {
	// 1. Topology, serialized through both formats.
	g0, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 20, LinkPairs: 40, Wavelengths: 3, GbpsPerWave: 20.0 / 3, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "net.json")
	jf, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g0.WriteJSON(jf); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	jf, err = os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := netgraph.ReadJSON(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}

	// 2. Workload, through the JSON trace format.
	jobs0, err := workload.Generate(g, workload.Config{
		Jobs: 10, Seed: 102, GBToDemand: 0.05, MinWindow: 4, MaxWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := job.WriteJSON(&trace, jobs0); err != nil {
		t.Fatal(err)
	}
	jobs, err := job.ReadJSON(&trace)
	if err != nil {
		t.Fatal(err)
	}

	// 3. One-shot scheduling with the max-throughput algorithm.
	grid, err := timeslice.Uniform(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := schedule.NewInstance(g, grid, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.MaxThroughput(inst, schedule.Config{Alpha: 0.1, AlphaGrowth: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.LPDAR.VerifyCapacity(1e-6); err != nil {
		t.Fatal(err)
	}
	if err := res.LPDAR.VerifyIntegral(1e-9); err != nil {
		t.Fatal(err)
	}

	if err := res.LPDAR.VerifyWindows(1e-9); err != nil {
		t.Fatal(err)
	}

	// 4. Periodic controller simulation over the same workload.
	ctrl, err := controller.New(g, controller.Config{Tau: 2, SliceLen: 1, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(ctrl, jobs, 300)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Summary.Total != len(jobs) {
		t.Fatalf("sim accounted %d of %d jobs", simRes.Summary.Total, len(jobs))
	}
	if simRes.Summary.Delivered <= 0 {
		t.Fatal("nothing delivered in simulation")
	}
	// Conservation: delivered never exceeds requested.
	if simRes.Summary.Delivered > simRes.Summary.Requested+1e-6 {
		t.Fatalf("delivered %g exceeds requested %g", simRes.Summary.Delivered, simRes.Summary.Requested)
	}
}

func TestFullPipelineRETOnGeant2(t *testing.T) {
	g := netgraph.Geant2(2)
	// A tier-0 style skew: seven of the eight transfers leave Geneva for
	// London, so they contend for the same few links.
	jobs := []job.Job{
		{ID: 0, Src: 5, Dst: 0, Size: 19.93, End: 3.54},
		{ID: 1, Src: 5, Dst: 0, Size: 7.34, End: 3.40},
		{ID: 2, Src: 5, Dst: 0, Size: 18.91, End: 3.43},
		{ID: 3, Src: 5, Dst: 0, Size: 14.50, End: 3.97},
		{ID: 4, Src: 5, Dst: 0, Size: 18.16, End: 4.83},
		{ID: 5, Src: 5, Dst: 0, Size: 2.20, End: 3.31},
		{ID: 6, Src: 5, Dst: 0, Size: 15.12, End: 3.27},
		{ID: 7, Src: 19, Dst: 20, Size: 19.07, End: 4.08},
	}
	inst, err := schedule.BuildRETInstance(g, jobs, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.SolveRET(inst, schedule.RETConfig{BMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LPDAR.AllDemandsMet() {
		t.Fatal("RET left demands unmet")
	}
	if err := res.LPDAR.VerifyCapacity(1e-6); err != nil {
		t.Fatal(err)
	}
	if err := res.LPDAR.VerifyWindows(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := res.LPDAR.VerifyIntegral(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestBRITEToScheduler(t *testing.T) {
	// Write a Waxman net as BRITE, read it back, and schedule on it.
	g0, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 12, LinkPairs: 24, Wavelengths: 2, GbpsPerWave: 10, Seed: 104,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g0.WriteBRITE(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := netgraph.ReadBRITE(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{Jobs: 5, Seed: 105, GBToDemand: 0.05, MinWindow: 3, MaxWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := timeslice.Uniform(0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := schedule.NewInstance(g, grid, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.MaxThroughput(inst, schedule.Config{Alpha: 0.1, AlphaGrowth: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ZStar <= 0 {
		t.Fatal("zero Z* on BRITE round-tripped network")
	}
}
