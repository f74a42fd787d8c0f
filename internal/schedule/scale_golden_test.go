package schedule

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

// goldenCount is one pinned count of a paper-scale run: what it measures,
// the run's value and the golden one.
type goldenCount struct {
	name      string
	got, want any
}

// checkGolden reports every count of run that moved, naming it. Floats
// compare bit for bit.
func checkGolden(t *testing.T, run string, counts []goldenCount) {
	t.Helper()
	for _, c := range counts {
		same := c.got == c.want
		if g, ok := c.got.(float64); ok {
			w, _ := c.want.(float64)
			same = math.Float64bits(g) == math.Float64bits(w)
		}
		if !same {
			t.Errorf("%s: %s moved: %v, golden %v", run, c.name, c.got, c.want)
		}
	}
}

// TestPaperScaleGolden pins the exact counts of two one-shot runs at the
// paper's scale, so a change that moves a scale trajectory fails here with
// the count it moved rather than in a hand-run pair of one-shots:
//
//   - scale400: `wavesched -net examples/scale/scale400.json -gen 100 -k 4
//     -algo maxthroughput` — 100 jobs on the 400-node preset, K = 4
//     enumeration, α = 0.1, the default solver options. Stage-1 and
//     stage-2 iterations, the refactorizations and phase-1 pivots of the
//     whole run, LP / LPD / LPDAR weighted throughput to the bit, the
//     smallest LPDAR Z_i and how many jobs LPDAR leaves below the fairness
//     floor (1−α)·Z*.
//   - Fig. 4 at full scale, seed 1: `benchfig -fig 4 -jobs 40 -counts 40
//     -seeds 1` — 40 jobs on the 100-node network, demands tripled, BMax 3.
//     b̂, b, the δ-rounds, the solved and pruned probes, and the pivots of
//     the b = 0 probe, the BMax ceiling, the bisection probes and
//     everything after the search (the extraction at b̂, the δ-rounds, any
//     solve past BMax).
//
// Two runs of the same scale do not fit in tier-1 (last readings, 2-CPU
// host):
//
//   - scale400 at K = 8 (`-k 8`): stage 1 1.09 s (3 060 iterations), stage
//     2 97.9 s (49 981); LP / LPD / LPDAR 5.7765 / 4.7087 / 5.5687.
//   - scale1000 (`-net examples/scale/scale1000.json -gen 250 -k 4`):
//     stage 1 3 035 iterations, stage 2 5 min 37 s (118 893).
//
// A change that moves a count here says which, by how much and why, and
// re-captures it. Skipped under -short and the race detector (~4 s).
func TestPaperScaleGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale one-shots: skipped under -short and -race")
	}
	t.Run("scale400", func(t *testing.T) {
		f, err := os.Open(filepath.Join("..", "..", "examples", "scale", "scale400.json"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := netgraph.ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		// The command's -gen workload: seed 1, windows of 5–10 one-unit
		// slices on a 10-slice horizon, 10 s per slice.
		jobs, err := workload.Generate(g, workload.Config{
			Jobs: 100, Seed: 1,
			GBToDemand: workload.GBToDemandFactor(g.Edge(0).GbpsPerWave, 10),
			MinWindow:  5, MaxWindow: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		grid, err := timeslice.Uniform(0, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(g, grid, jobs, 4)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		var phase1 int64
		refactors := countRefactorizations(t, func() {
			_, phase1 = countPivots(t, func() {
				if res, err = MaxThroughput(inst, Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: lp.Options{}}); err != nil {
					t.Fatal(err)
				}
			})
		})
		minZ, below := math.Inf(1), 0
		floor := (1 - res.Alpha) * res.ZStar
		for k := range inst.Jobs {
			z := res.LPDAR.Throughput(k)
			minZ = math.Min(minZ, z)
			if z < floor-1e-9 {
				below++
			}
		}
		checkGolden(t, "scale400", []goldenCount{
			{"stage-1 iterations", res.Stage1Iters, 1278},
			{"stage-2 iterations", res.Stage2Iters, 10006},
			{"refactorizations", refactors, int64(177)},
			{"phase-1 pivots", phase1, int64(702)},
			{"LP weighted throughput", res.LP.WeightedThroughput(), 4.730011551721473},
			{"LPD weighted throughput", res.LPD.WeightedThroughput(), 4.643389450703371},
			{"LPDAR weighted throughput", res.LPDAR.WeightedThroughput(), 4.723109900039961},
			{"minimum LPDAR Z_i", minZ, 0.0},
			{"jobs below (1-α)Z*", below, 7},
		})
	})
	t.Run("fig4_seed1", func(t *testing.T) {
		// experiments.PaperScale's Fig. 4 at 40 jobs, seed 1: a 100-node,
		// 200-link-pair Waxman network with 4 wavelengths of 5 Gb/s, sizes
		// U[1, 100] GB in 10 s slices over an 8-slice horizon (starts spread
		// over 2 slices), tripled to force overload.
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{
			Nodes: 100, LinkPairs: 200, Wavelengths: 4, GbpsPerWave: 5, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := workload.Generate(g, workload.Config{
			Jobs: 40, Seed: 1001, GBToDemand: workload.GBToDemandFactor(5, 10),
			MinWindow: 4, MaxWindow: 8, StartSpread: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			jobs[i].Size *= 3
		}
		inst, err := BuildRETInstance(g, jobs, 1, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveRET(inst, RETConfig{BMax: 3, Solver: lp.Options{}})
		if err != nil {
			t.Fatal(err)
		}
		pivots := map[ProbeStage]int{}
		search := 0
		for _, p := range res.Probes {
			pivots[p.Stage] += p.Iters
			search += p.Iters
		}
		checkGolden(t, "fig4 seed 1", []goldenCount{
			{"b̂", res.BHat, 2.6953125},
			{"b", res.B, 3.0953125000000004},
			{"δ-rounds", res.Rounds, 4},
			{"solved probes", res.ProbesSolved, 4},
			{"pruned probes", res.ProbesPruned, 7},
			{"b = 0 probe pivots", pivots[StageB0], 0},
			{"BMax ceiling pivots", pivots[StageBMax], 12907},
			{"bisection probe pivots", pivots[StageBisect], 25},
			{"pivots after the search", res.LPIters - search, 12504},
		})
	})
}
