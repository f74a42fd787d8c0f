// Package experiments regenerates every figure and table of the paper's
// evaluation (Section III). Each experiment returns structured rows so the
// cmd/benchfig harness and the testing.B benchmarks share one
// implementation:
//
//	Fig. 1  — LP/LPD/LPDAR normalized throughput vs wavelengths per link,
//	          random Waxman network (100 nodes, 200 link pairs).
//	Fig. 2  — the same sweep on the Abilene backbone (11 nodes, 20 pairs).
//	Fig. 3  — computation time of LP, LPD and LPDAR vs number of jobs.
//	§III-B.1 — fraction of jobs finished by LP/LPD/LPDAR after Algorithm 2.
//	Fig. 4  — average end time of LP and LPDAR after Algorithm 2 vs jobs.
package experiments

import (
	"fmt"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/metrics"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

// Scale sets the size of an experiment run. The paper's sizes are the
// default; QuickScale shrinks everything for fast benchmarks and CI.
type Scale struct {
	Nodes     int // random-network nodes (Fig. 1, 3, 4)
	LinkPairs int // random-network bidirectional link pairs
	Jobs      int // jobs per scheduling instance
	Slices    int // horizon length in slices (requested windows live here)
	K         int // allowed paths per job

	SliceSeconds float64 // wall duration of one slice
	LinkGbps     float64 // total capacity of every link (paper: 20 Gb/s)

	Seeds []int64 // replications; results are averaged

	// Parallelism bounds the per-component solver pool; 0 means one worker
	// per CPU.
	Parallelism int

	Solver lp.Options
}

// PaperScale mirrors the paper's setup: 100-node / 200-link-pair Waxman
// networks, 20 Gb/s links, job sizes U[1,100] GB.
func PaperScale() Scale {
	return Scale{
		Nodes: 100, LinkPairs: 200, Jobs: 40, Slices: 8, K: 4,
		SliceSeconds: 10, LinkGbps: 20,
		Seeds: []int64{1, 2, 3},
	}
}

// QuickScale is a reduced setup for fast runs.
func QuickScale() Scale {
	return Scale{
		Nodes: 30, LinkPairs: 60, Jobs: 12, Slices: 6, K: 4,
		SliceSeconds: 10, LinkGbps: 20,
		Seeds: []int64{1},
	}
}

// DefaultWavelengths is the sweep of Figures 1 and 2.
var DefaultWavelengths = []int{2, 4, 8, 16, 32}

// randomNet builds the Fig. 1/3/4 Waxman network with the given
// wavelength count per link.
func (sc Scale) randomNet(w int, seed int64) (*netgraph.Graph, error) {
	return netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: sc.Nodes, LinkPairs: sc.LinkPairs,
		Wavelengths: w, GbpsPerWave: sc.LinkGbps / float64(w),
		Seed: seed,
	})
}

// jobsFor draws the standard workload: sizes U[1,100] GB converted to
// wavelength·slice demand units for the given per-wavelength rate, with
// windows spread over the horizon.
func (sc Scale) jobsFor(g *netgraph.Graph, n int, w int, seed int64) ([]job.Job, error) {
	factor := workload.GBToDemandFactor(sc.LinkGbps/float64(w), sc.SliceSeconds)
	return workload.Generate(g, workload.Config{
		Jobs: n, Seed: seed, GBToDemand: factor,
		MinWindow: float64(sc.Slices) / 2, MaxWindow: float64(sc.Slices),
		StartSpread: float64(sc.Slices) / 4,
	})
}

func (sc Scale) grid() (*timeslice.Grid, error) {
	// Windows start up to Slices/4 late and last up to Slices, so the grid
	// must cover 1.25·Slices.
	n := sc.Slices + sc.Slices/4 + 1
	return timeslice.Uniform(0, 1, n)
}

// ThroughputRow is one sweep point of Figures 1 and 2. Ratios are
// normalized to the LP solution (LP ≡ 1), averaged over seeds.
type ThroughputRow struct {
	Wavelengths int
	LPDRatio    float64
	LPDARRatio  float64
	ZStar       float64 // mean stage-1 Z*
}

// Fig1 regenerates Figure 1: the throughput comparison on the random
// network across the wavelength sweep.
func Fig1(sc Scale, waves []int) ([]ThroughputRow, error) {
	return throughputSweep(sc, waves, func(w int, seed int64) (*netgraph.Graph, error) {
		return sc.randomNet(w, seed)
	})
}

// Fig2 regenerates Figure 2: the same comparison on the Abilene backbone
// with 11 nodes and 20 link pairs.
func Fig2(sc Scale, waves []int) ([]ThroughputRow, error) {
	// The builtin Abilene uses the paper's 20 Gb/s links; the demand
	// conversion in jobsFor assumes sc.LinkGbps matches (20 by default).
	return throughputSweep(sc, waves, func(w int, _ int64) (*netgraph.Graph, error) {
		return netgraph.AbileneDense(w), nil
	})
}

func throughputSweep(sc Scale, waves []int, build func(w int, seed int64) (*netgraph.Graph, error)) ([]ThroughputRow, error) {
	if len(waves) == 0 {
		waves = DefaultWavelengths
	}
	type sample struct{ lpd, lpdar, z float64 }
	rows := make([]ThroughputRow, 0, len(waves))
	for _, w := range waves {
		w := w
		samples, err := runSeeds(sc.Seeds, func(seed int64) (sample, error) {
			g, err := build(w, seed)
			if err != nil {
				return sample{}, err
			}
			grid, err := sc.grid()
			if err != nil {
				return sample{}, err
			}
			jobs, err := sc.jobsFor(g, sc.Jobs, w, seed+1000)
			if err != nil {
				return sample{}, err
			}
			inst, err := schedule.NewInstance(g, grid, jobs, sc.K)
			if err != nil {
				return sample{}, err
			}
			res, err := schedule.MaxThroughput(inst, schedule.Config{
				Alpha: 0.1, AlphaGrowth: 0.1, Solver: sc.Solver,
				Parallelism: sc.Parallelism,
			})
			if err != nil {
				return sample{}, fmt.Errorf("experiments: W=%d seed=%d: %w", w, seed, err)
			}
			lpT := res.LP.WeightedThroughput()
			if lpT <= 0 {
				return sample{}, fmt.Errorf("experiments: W=%d seed=%d: zero LP throughput", w, seed)
			}
			return sample{
				lpd:   res.LPD.WeightedThroughput() / lpT,
				lpdar: res.LPDAR.WeightedThroughput() / lpT,
				z:     res.ZStar,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var lpdSum, lpdarSum, zSum float64
		for _, s := range samples {
			lpdSum += s.lpd
			lpdarSum += s.lpdar
			zSum += s.z
		}
		n := float64(len(sc.Seeds))
		rows = append(rows, ThroughputRow{
			Wavelengths: w,
			LPDRatio:    lpdSum / n,
			LPDARRatio:  lpdarSum / n,
			ZStar:       zSum / n,
		})
	}
	return rows, nil
}

// TimeRow is one sweep point of Figure 3: cumulative computation time of
// each algorithm variant (LPD includes LP; LPDAR includes LPD), averaged
// over seeds.
type TimeRow struct {
	Jobs        int
	LPms        float64
	LPDms       float64
	LPDARms     float64
	SimplexIter int
}

// Fig3 regenerates Figure 3: computation time versus the number of jobs
// on the random network.
func Fig3(sc Scale, jobCounts []int) ([]TimeRow, error) {
	if len(jobCounts) == 0 {
		jobCounts = []int{sc.Jobs / 2, sc.Jobs, sc.Jobs * 3 / 2, sc.Jobs * 2}
	}
	const w = 4
	type sample struct {
		lpMS, lpdMS, lpdarMS float64
		iters                int
	}
	rows := make([]TimeRow, 0, len(jobCounts))
	for _, n := range jobCounts {
		n := n
		samples, err := runSeeds(sc.Seeds, func(seed int64) (sample, error) {
			g, err := sc.randomNet(w, seed)
			if err != nil {
				return sample{}, err
			}
			grid, err := sc.grid()
			if err != nil {
				return sample{}, err
			}
			jobs, err := sc.jobsFor(g, n, w, seed+1000)
			if err != nil {
				return sample{}, err
			}
			inst, err := schedule.NewInstance(g, grid, jobs, sc.K)
			if err != nil {
				return sample{}, err
			}
			res, err := schedule.MaxThroughput(inst, schedule.Config{
				Alpha: 0.1, AlphaGrowth: 0.1, Solver: sc.Solver,
				Parallelism: sc.Parallelism,
			})
			if err != nil {
				return sample{}, fmt.Errorf("experiments: fig3 n=%d seed=%d: %w", n, seed, err)
			}
			return sample{
				lpMS:    float64(res.LPTime()) / float64(time.Millisecond),
				lpdMS:   float64(res.LPDTime()) / float64(time.Millisecond),
				lpdarMS: float64(res.LPDARTime()) / float64(time.Millisecond),
				iters:   res.Stage1Iters + res.Stage2Iters,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var lpMS, lpdMS, lpdarMS float64
		iters := 0
		for _, s := range samples {
			lpMS += s.lpMS
			lpdMS += s.lpdMS
			lpdarMS += s.lpdarMS
			iters += s.iters
		}
		k := float64(len(sc.Seeds))
		rows = append(rows, TimeRow{
			Jobs: n, LPms: lpMS / k, LPDms: lpdMS / k, LPDARms: lpdarMS / k,
			SimplexIter: iters / len(sc.Seeds),
		})
	}
	return rows, nil
}

// RETRow is one sweep point of Figure 4 and the §III-B.1 fraction-finished
// comparison, averaged over seeds.
type RETRow struct {
	Jobs        int
	BHat        float64 // mean minimal fractional extension
	B           float64 // mean final extension after δ rounds
	LPAvgEnd    float64 // mean average end time (slices), LP
	LPDARAvgEnd float64 // mean average end time (slices), LPDAR
	FracLP      float64 // fraction of jobs finished, LP
	FracLPD     float64 // fraction of jobs finished, LPD (typically ≈ 0)
	FracLPDAR   float64 // fraction of jobs finished, LPDAR (always 1)
	LPms        float64 // mean LP optimization time (search + solve), ms

	// Probe-economy metrics of the binary search (PR 9): how many
	// feasibility probes were answered by a simplex solve vs a
	// certificate / window-memo check, and the pivots spent per solved
	// probe-or-round.
	ProbesSolved   float64 // mean probes answered by a solve
	ProbesPruned   float64 // mean probes answered by certificate or memo
	PivotsPerSolve float64 // mean simplex pivots per LP solve (probes + rounds)
}

// RETConfig controls the Fig. 4 / fraction-finished runs.
type RETConfig struct {
	BMax        float64 // extension ceiling; default 3
	OverloadGBx float64 // workload inflation factor to force overload; default 3
}

// Fig4 regenerates Figure 4 (average end time vs number of jobs) together
// with the §III-B.1 fraction-finished columns, on an overloaded random
// network.
func Fig4(sc Scale, jobCounts []int, cfg RETConfig) ([]RETRow, error) {
	if cfg.BMax == 0 {
		cfg.BMax = 3
	}
	if cfg.OverloadGBx == 0 {
		cfg.OverloadGBx = 3
	}
	if len(jobCounts) == 0 {
		jobCounts = []int{sc.Jobs / 2, sc.Jobs, sc.Jobs * 3 / 2, sc.Jobs * 2}
	}
	const w = 4
	rows := make([]RETRow, 0, len(jobCounts))
	for _, n := range jobCounts {
		n := n
		samples, err := runSeeds(sc.Seeds, func(seed int64) (RETRow, error) {
			g, err := sc.randomNet(w, seed)
			if err != nil {
				return RETRow{}, err
			}
			jobs, err := sc.jobsFor(g, n, w, seed+1000)
			if err != nil {
				return RETRow{}, err
			}
			// Inflate demands so the requested windows cannot hold them.
			for i := range jobs {
				jobs[i].Size *= cfg.OverloadGBx
			}
			inst, err := schedule.BuildRETInstance(g, jobs, 1, sc.K, cfg.BMax)
			if err != nil {
				return RETRow{}, err
			}
			res, err := schedule.SolveRET(inst, schedule.RETConfig{
				BMax: cfg.BMax, Solver: sc.Solver, Parallelism: sc.Parallelism,
			})
			if err != nil {
				return RETRow{}, fmt.Errorf("experiments: fig4 n=%d seed=%d: %w", n, seed, err)
			}
			lpEnd, _ := res.LP.AverageEndTime()
			darEnd, _ := res.LPDAR.AverageEndTime()
			solves := float64(res.ProbesSolved + res.Rounds + 1) // probes + δ-rounds + the b̂ extraction
			return RETRow{
				BHat:        res.BHat,
				B:           res.B,
				LPAvgEnd:    lpEnd,
				LPDARAvgEnd: darEnd,
				FracLP:      res.LP.FractionFinished(),
				FracLPD:     res.LPD.FractionFinished(),
				FracLPDAR:   res.LPDAR.FractionFinished(),
				LPms:        float64(res.SearchTime+res.SolveTime) / float64(time.Millisecond),

				ProbesSolved:   float64(res.ProbesSolved),
				ProbesPruned:   float64(res.ProbesPruned),
				PivotsPerSolve: float64(res.LPIters) / solves,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		row := RETRow{Jobs: n}
		for _, s := range samples {
			row.BHat += s.BHat
			row.B += s.B
			row.LPAvgEnd += s.LPAvgEnd
			row.LPDARAvgEnd += s.LPDARAvgEnd
			row.FracLP += s.FracLP
			row.FracLPD += s.FracLPD
			row.FracLPDAR += s.FracLPDAR
			row.LPms += s.LPms
			row.ProbesSolved += s.ProbesSolved
			row.ProbesPruned += s.ProbesPruned
			row.PivotsPerSolve += s.PivotsPerSolve
		}
		k := float64(len(sc.Seeds))
		row.BHat /= k
		row.B /= k
		row.LPAvgEnd /= k
		row.LPDARAvgEnd /= k
		row.FracLP /= k
		row.FracLPD /= k
		row.FracLPDAR /= k
		row.LPms /= k
		row.ProbesSolved /= k
		row.ProbesPruned /= k
		row.PivotsPerSolve /= k
		rows = append(rows, row)
	}
	return rows, nil
}

// ThroughputTable renders Fig. 1/2 rows.
func ThroughputTable(title string, rows []ThroughputRow) *metrics.Table {
	t := metrics.NewTable(title, "wavelengths", "LP", "LPD", "LPDAR", "Z*")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Wavelengths),
			"1.000",
			fmt.Sprintf("%.3f", r.LPDRatio),
			fmt.Sprintf("%.3f", r.LPDARRatio),
			fmt.Sprintf("%.3f", r.ZStar),
		)
	}
	return t
}

// TimeTable renders Fig. 3 rows.
func TimeTable(title string, rows []TimeRow) *metrics.Table {
	t := metrics.NewTable(title, "jobs", "LP (ms)", "LPD (ms)", "LPDAR (ms)", "simplex iters")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%.1f", r.LPms),
			fmt.Sprintf("%.1f", r.LPDms),
			fmt.Sprintf("%.1f", r.LPDARms),
			fmt.Sprintf("%d", r.SimplexIter),
		)
	}
	return t
}

// RETTable renders Fig. 4 / §III-B.1 rows.
func RETTable(title string, rows []RETRow) *metrics.Table {
	t := metrics.NewTable(title, "jobs", "b^", "b", "avg end LP", "avg end LPDAR",
		"finished LP", "finished LPD", "finished LPDAR", "LP (ms)",
		"probes solved", "probes pruned", "pivots/solve")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%.3f", r.BHat),
			fmt.Sprintf("%.3f", r.B),
			fmt.Sprintf("%.2f", r.LPAvgEnd),
			fmt.Sprintf("%.2f", r.LPDARAvgEnd),
			fmt.Sprintf("%.2f", r.FracLP),
			fmt.Sprintf("%.2f", r.FracLPD),
			fmt.Sprintf("%.2f", r.FracLPDAR),
			fmt.Sprintf("%.1f", r.LPms),
			fmt.Sprintf("%.1f", r.ProbesSolved),
			fmt.Sprintf("%.1f", r.ProbesPruned),
			fmt.Sprintf("%.0f", r.PivotsPerSolve),
		)
	}
	return t
}
