// Package workload generates the synthetic job populations used by the
// paper's evaluation: uniformly distributed job sizes on [1, 100] GB,
// random distinct source/destination pairs, and Poisson request arrivals.
// All generators are deterministic under a fixed seed.
package workload

import (
	"fmt"
	"math/rand"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
)

// Config parameterizes a job generator.
type Config struct {
	Jobs int // number of jobs to draw

	// Job sizes are uniform on [SizeMinGB, SizeMaxGB] (defaults 1 and 100,
	// as in the paper), then converted to demand units via GBToDemand.
	SizeMinGB float64
	SizeMaxGB float64

	// GBToDemand converts a size in gigabytes to the scheduler's demand
	// unit (wavelength-capacity × time-slice units). With 20 Gb/s links and
	// 1-slice ≙ 10 s, one GB is 8/20/10 = 0.04 demand units per wavelength
	// slice; callers set the factor for their slice length. Default 1.
	GBToDemand float64

	// Windows: start times uniform on [0, StartSpread]; window lengths
	// uniform on [MinWindow, MaxWindow] slices worth of time.
	StartSpread float64
	MinWindow   float64
	MaxWindow   float64

	// ArrivalRate > 0 draws Poisson arrivals with that rate (jobs per time
	// unit) and sets each job's start at or after its arrival. Zero makes
	// all jobs arrive at time 0.
	ArrivalRate float64

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SizeMinGB == 0 {
		c.SizeMinGB = 1
	}
	if c.SizeMaxGB == 0 {
		c.SizeMaxGB = 100
	}
	if c.GBToDemand == 0 {
		c.GBToDemand = 1
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 10
	}
	if c.MinWindow == 0 {
		c.MinWindow = c.MaxWindow / 2
	}
	return c
}

// Generate draws cfg.Jobs random jobs over the nodes of g.
func Generate(g *netgraph.Graph, cfg Config) ([]job.Job, error) {
	cfg = cfg.withDefaults()
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("workload: graph needs at least 2 nodes")
	}
	if cfg.Jobs < 0 {
		return nil, fmt.Errorf("workload: negative job count %d", cfg.Jobs)
	}
	if cfg.SizeMaxGB < cfg.SizeMinGB {
		return nil, fmt.Errorf("workload: size range [%g, %g] inverted", cfg.SizeMinGB, cfg.SizeMaxGB)
	}
	if cfg.MaxWindow < cfg.MinWindow || cfg.MinWindow <= 0 {
		return nil, fmt.Errorf("workload: window range [%g, %g] invalid", cfg.MinWindow, cfg.MaxWindow)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]job.Job, 0, cfg.Jobs)
	clock := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		src := netgraph.NodeID(rng.Intn(g.NumNodes()))
		dst := src
		for dst == src {
			dst = netgraph.NodeID(rng.Intn(g.NumNodes()))
		}
		sizeGB := cfg.SizeMinGB + rng.Float64()*(cfg.SizeMaxGB-cfg.SizeMinGB)
		arrival := 0.0
		if cfg.ArrivalRate > 0 {
			clock += rng.ExpFloat64() / cfg.ArrivalRate
			arrival = clock
		}
		start := arrival + rng.Float64()*cfg.StartSpread
		window := cfg.MinWindow + rng.Float64()*(cfg.MaxWindow-cfg.MinWindow)
		jobs = append(jobs, job.Job{
			ID:      job.ID(i),
			Arrival: arrival,
			Src:     src,
			Dst:     dst,
			Size:    sizeGB * cfg.GBToDemand,
			Start:   start,
			End:     start + window,
		})
	}
	if err := job.ValidateAll(jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// GBToDemandFactor returns the conversion factor from gigabytes to demand
// units for a link rate of gbpsPerWave Gb/s per wavelength and slices of
// sliceLen seconds: one demand unit is what one wavelength carries in one
// unit of grid time.
func GBToDemandFactor(gbpsPerWave, sliceLenSeconds float64) float64 {
	if gbpsPerWave <= 0 || sliceLenSeconds <= 0 {
		return 1
	}
	// GB → gigabits (×8), divided by what a wavelength moves per time unit.
	return 8 / (gbpsPerWave * sliceLenSeconds)
}
