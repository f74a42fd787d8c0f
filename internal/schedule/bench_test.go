package schedule

import (
	"fmt"
	"testing"
	"time"

	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

func benchInstance(b *testing.B, nodes, jobs, slices int) *Instance {
	b.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: nodes, LinkPairs: 2 * nodes, Wavelengths: 4, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := timeslice.Uniform(0, 1, slices)
	if err != nil {
		b.Fatal(err)
	}
	js, err := workload.Generate(g, workload.Config{
		Jobs: jobs, Seed: 14, GBToDemand: 0.1,
		MinWindow: float64(slices) / 2, MaxWindow: float64(slices),
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := NewInstance(g, grid, js, 4)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func BenchmarkStage1(b *testing.B) {
	for _, sz := range []struct{ nodes, jobs, slices int }{
		{20, 10, 6}, {40, 20, 8},
	} {
		b.Run(fmt.Sprintf("n%d_j%d", sz.nodes, sz.jobs), func(b *testing.B) {
			inst := benchInstance(b, sz.nodes, sz.jobs, sz.slices)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveStage1(inst, solverOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMaxThroughputEndToEnd(b *testing.B) {
	inst := benchInstance(b, 30, 15, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxThroughput(inst, Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: solverOpts()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdjustRates(b *testing.B) {
	inst := benchInstance(b, 40, 20, 8)
	res, err := MaxThroughput(inst, Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: solverOpts()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AdjustRates(res.LPD, VerbatimAdjust)
	}
}

func BenchmarkRandomizedRound(b *testing.B) {
	inst := benchInstance(b, 40, 20, 8)
	res, err := MaxThroughput(inst, Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: solverOpts()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomizedRound(res.LP, int64(i))
	}
}

func BenchmarkRETEndToEnd(b *testing.B) {
	g := netgraph.Ring(8, 2, 10)
	js, err := workload.Generate(g, workload.Config{
		Jobs: 6, Seed: 15, GBToDemand: 0.2, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := BuildRETInstance(g, js, 1, 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveRET(inst, RETConfig{BMax: 5, Solver: solverOpts()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubRETCeiling solves one SUB-RET ceiling of steady-ret's shape
// cold, as the RET search's first solve does: a 40-node, 80-link-pair
// Waxman graph, five jobs with windows of 4–8 one-second slices at the
// benchmark's load, and every window stretched to the 6× horizon BMax = 5
// gives, from the all-artificial start RETConfig selects. Nearly every pivot
// swaps a capacity row's artificial for its slack, so ns/pivot is the cost
// of the pivot kernels on a basis that is mostly identity; min-ns/pivot is
// the fastest solve, the figure to compare two kernels by.
func BenchmarkSubRETCeiling(b *testing.B) {
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 40, LinkPairs: 80, Wavelengths: 4, GbpsPerWave: 5, Seed: 403,
	})
	if err != nil {
		b.Fatal(err)
	}
	js, err := workload.Generate(g, workload.Config{
		Jobs: 5, Seed: 404, MinWindow: 4, MaxWindow: 8,
		GBToDemand: 2 * workload.GBToDemandFactor(5, 10),
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := BuildRETInstance(g, js, 1, 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := RETConfig{BMax: 5, Solver: solverOpts()}.withDefaults()
	m, _, _, err := buildSubRETModel("sub-ret", inst, retExtendedLast(inst, cfg.BMax))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.SolveWith(cfg.Solver); err != nil { // size the solver's buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	pivots, fastest := 0, 0.0
	for i := 0; i < b.N; i++ {
		start := time.Now()
		sol, err := m.SolveWith(cfg.Solver)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("status %v, err %v", sol.Status, err)
		}
		if d := float64(time.Since(start).Nanoseconds()) / float64(sol.Iters); i == 0 || d < fastest {
			fastest = d
		}
		pivots += sol.Iters
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
	b.ReportMetric(fastest, "min-ns/pivot")
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(m.NumRows()), "rows")
}
