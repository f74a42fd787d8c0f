// Abilene: schedule an e-science workload on the Internet2 Abilene
// backbone (the paper's Figure 2 setting: 11 nodes, 20 bidirectional
// link pairs, 20 Gb/s per link), check the integer schedule against the
// paper's constraints and count the lightpaths it lights per slice.
package main

import (
	"fmt"
	"log"
	"math"

	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

func main() {
	const wavelengths = 8
	g := netgraph.AbileneDense(wavelengths)
	fmt.Printf("Abilene: %d nodes, %d directed edges, %d wavelengths × %.1f Gb/s per link\n\n",
		g.NumNodes(), g.NumEdges(), wavelengths, g.Edge(0).GbpsPerWave)

	// 12 slices of 10 seconds each; job sizes U[1,100] GB converted to
	// wavelength·slice demand units at 20/8 Gb/s per wavelength.
	grid, err := timeslice.Uniform(0, 1, 12)
	if err != nil {
		log.Fatal(err)
	}
	factor := workload.GBToDemandFactor(g.Edge(0).GbpsPerWave, 10)
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 15, Seed: 42, GBToDemand: factor,
		MinWindow: 6, MaxWindow: 12,
	})
	if err != nil {
		log.Fatal(err)
	}

	inst, err := schedule.NewInstance(g, grid, jobs, 6)
	if err != nil {
		log.Fatal(err)
	}
	res, err := schedule.MaxThroughput(inst, schedule.Config{Alpha: 0.1, AlphaGrowth: 0.1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Z* = %.3f; throughput LP %.3f, LPD %.3f, LPDAR %.3f\n",
		res.ZStar,
		res.LP.WeightedThroughput(),
		res.LPD.WeightedThroughput(),
		res.LPDAR.WeightedThroughput())
	fmt.Printf("solve time: stage 1 %v, stage 2 %v\n\n", res.Stage1Time, res.Stage2Time)

	for k, j := range inst.Jobs {
		src := g.Node(j.Src).Name
		dst := g.Node(j.Dst).Name
		fmt.Printf("job %2d %-14s → %-14s size %6.2f  Z=%.2f\n",
			j.ID, src, dst, j.Size, res.LPDAR.Throughput(k))
	}

	// The paper's formulation limits wavelength counts per link, so it
	// assumes full wavelength conversion: an LPDAR schedule that is integral
	// (eq. 10), within every link's capacity (eq. 3) and inside every job's
	// window (eq. 4) can be lit as it stands, one lightpath per wavelength
	// of X, each hop taking any free wavelength.
	a := res.LPDAR
	if err := a.VerifyIntegral(1e-9); err != nil {
		log.Fatal(err)
	}
	if err := a.VerifyCapacity(1e-9); err != nil {
		log.Fatal(err)
	}
	if err := a.VerifyWindows(1e-9); err != nil {
		log.Fatal(err)
	}
	perSlice := make([]int, grid.Num())
	total := 0
	for k := range a.X {
		for p := range a.X[k] {
			for s, v := range a.X[k][p] {
				n := int(math.Round(v))
				perSlice[s] += n
				total += n
			}
		}
	}
	fmt.Printf("\nprovisioned %d lightpath-slices\n", total)
	for s, n := range perSlice {
		if n > 0 {
			fmt.Printf("  slice %2d: %d active lightpaths\n", s, n)
		}
	}
}
