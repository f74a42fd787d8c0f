package main

import (
	"fmt"
	"math"
	"math/rand"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/workload"
)

// Scheduling constants shared by every workload: `wavesched serve`'s flag
// defaults (τ = 2 s, 1 s slices, K = 4, α = 0.1, BMax = 5) on the paper's
// 4 × 5 Gb/s links with 10 s slices.
const (
	tau         = 2.0
	sliceLen    = 1.0
	kPaths      = 4
	alpha       = 0.1
	bMax        = 5.0
	wavelengths = 4
	gbpsPerWave = 5.0
	sliceSecs   = 10.0

	// warmupEpochs fill the active set before any timing sample is taken.
	warmupEpochs = 3
	// replayEvery is the layer-replay sampling stride over measured epochs;
	// maxReplaySamples caps how many epochs one run replays.
	replayEvery      = 4
	maxReplaySamples = 8
)

// spec is one workload's frozen sizing. TopoSeed is part of the sizing, not
// of the run: it draws the topology and the base trace, which -seed then
// perturbs (see genTrace), so runs with different seeds are the same network
// under nearly the same traffic and their timings are comparable.
type spec struct {
	Name string
	Why  string

	// Topology: regions disjoint Waxman graphs of Nodes/Pairs each
	// (regions ≤ 1 is one graph); Nodes == 2 selects netgraph.Line.
	Nodes, Pairs, Regions int
	TopoSeed              int64

	Policy    controller.Policy
	ColumnGen bool
	Load      float64 // demand multiplier on the paper's U[1,100] GB sizes
	Arrivals  int     // jobs submitted per epoch (split evenly over regions)
	Epochs    int     // measured epochs per pass at the reference duration (after warm-up)
	// Passes is how many times at most an untraced run sets up a fresh daemon
	// and runs the measured epochs; timings are taken across the passes.
	Passes int
	// Seconds is the run's measuring time (--seconds): the first pass to
	// start after it is the run's last (repeatPasses). 0 sets no limit.
	Seconds float64
	// SizeJitter is the half-width of the run seed's perturbation of every
	// transfer size (see genTrace); 0 leaves the seed the tenants alone.
	SizeJitter float64
	Faults     bool // link down/up events after every tick

	// Storm sizes the intake phases after the epochs (intake-storm only):
	// two clients each send StormSingles single POSTs, then StormBatches
	// batch POSTs of StormBatchSize jobs, with windows no epoch of the run
	// ever reaches.
	StormSingles, StormBatches, StormBatchSize int
	// Restart reopens a daemon over the run's WAL afterwards and requires
	// the replayed state to match (it re-solves every epoch, so only the
	// workload with cheap epochs does it).
	Restart bool
}

// referenceSeconds is the --seconds value the Epochs and Storm* counts are
// frozen for; other durations scale them proportionally.
const referenceSeconds = 20

// scaled returns the spec sized for a run of the given duration.
func (s spec) scaled(seconds float64) spec {
	s.Seconds = seconds
	f := seconds / referenceSeconds
	scale := func(n, min int) int {
		if n == 0 {
			return 0
		}
		if v := int(math.Round(float64(n) * f)); v > min {
			return v
		}
		return min
	}
	s.Epochs = scale(s.Epochs, 2)
	s.StormSingles = scale(s.StormSingles, 8)
	s.StormBatches = scale(s.StormBatches, 1)
	return s
}

// workloads lists the frozen sizings, in report order. The sizes were
// measured on 2 cores to put one untraced run near referenceSeconds of
// measuring; see README.md for the calibration table.
var workloads = []spec{
	{
		Name:  "steady-enum",
		Why:   "one coupled, overloaded instance under K=4 enumeration: lp and paths.KShortest do the work, decomposition and column generation none",
		Nodes: 80, Pairs: 160, TopoSeed: 1501,
		Policy: controller.PolicyMaxThroughput, Load: 3, Arrivals: 12, Epochs: 12, Passes: 11, SizeJitter: 0.01,
	},
	{
		Name:  "steady-colgen",
		Why:   "same policy and load with ColumnGen on: GeneratePaths, warm re-solves after AddColumn and PricedShortest do the work, Yen enumeration is bypassed",
		Nodes: 30, Pairs: 60, TopoSeed: 502, ColumnGen: true,
		Policy: controller.PolicyMaxThroughput, Load: 3, Arrivals: 5, Epochs: 12, Passes: 8,
	},
	{
		Name:  "steady-ret",
		Why:   "PolicyRET: stage 1/2 are bypassed; SUB-RET bisection, certificates, lp.Incremental re-entries and the 6x-horizon instance build do the work",
		Nodes: 40, Pairs: 80, TopoSeed: 403,
		Policy: controller.PolicyRET, Load: 2, Arrivals: 2, Epochs: 24, Passes: 12, SizeJitter: 0.01,
	},
	{
		Name:  "fault-churn",
		Why:   "8 disjoint regions with a link failure and a repair every epoch: decompose pool, per-component bases, PlanCache and PathCache are used and invalidated each epoch",
		Nodes: 30, Pairs: 60, Regions: 8, TopoSeed: 3004,
		Policy: controller.PolicyMaxThroughput, Load: 3, Arrivals: 40, Epochs: 12, Passes: 9, SizeJitter: 0.01, Faults: true,
	},
	{
		Name:  "intake-storm",
		Why:   "a lightly loaded daemon takes a long flood of single and batch submits, then restarts over its WAL: server, admission and store do the work, schedule and lp almost none",
		Nodes: 16, Pairs: 32, TopoSeed: 1605,
		Policy: controller.PolicyMaxThroughput, Load: 1, Arrivals: 4, Epochs: 60, Passes: 20, SizeJitter: 0.01,
		StormSingles: 9000, StormBatches: 60, StormBatchSize: 128, Restart: true,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// smoke shrinks a spec to a tiny graph and at most 4 epochs, for tests and
// the -check determinism self-check.
func (s spec) smoke() spec {
	if s.Nodes > 12 {
		s.Nodes, s.Pairs = 12, 20
	}
	if s.Regions > 2 {
		s.Regions = 2
	}
	if s.Arrivals > 4 {
		s.Arrivals = 4
	}
	s.Epochs = 1 // plus the warm-up: 4 ticks with arrivals
	s.Passes = 2
	if s.StormSingles > 0 {
		s.StormSingles, s.StormBatches, s.StormBatchSize = 16, 2, 8
	}
	return s
}

// buildGraph constructs the workload's topology. Multi-region graphs are
// assembled by the harness from per-region Waxman graphs through the
// public New/AddNode/AddEdge surface, so regions share no link and the
// scheduler's decomposition finds at least one component per busy region.
func buildGraph(s spec) (*netgraph.Graph, error) {
	if s.Nodes == 2 {
		return netgraph.Line(2, wavelengths, gbpsPerWave), nil
	}
	regions := s.Regions
	if regions < 1 {
		regions = 1
	}
	if regions == 1 {
		return netgraph.Waxman(netgraph.WaxmanConfig{
			Nodes: s.Nodes, LinkPairs: s.Pairs,
			Wavelengths: wavelengths, GbpsPerWave: gbpsPerWave, Seed: s.TopoSeed,
		})
	}
	g := netgraph.New(fmt.Sprintf("%s-%dx%d", s.Name, regions, s.Nodes))
	for r := 0; r < regions; r++ {
		rg, err := netgraph.Waxman(netgraph.WaxmanConfig{
			Nodes: s.Nodes, LinkPairs: s.Pairs,
			Wavelengths: wavelengths, GbpsPerWave: gbpsPerWave, Seed: s.TopoSeed + int64(r),
		})
		if err != nil {
			return nil, err
		}
		base := netgraph.NodeID(g.NumNodes())
		for v := 0; v < rg.NumNodes(); v++ {
			n := rg.Node(netgraph.NodeID(v))
			g.AddNode(fmt.Sprintf("r%d.%s", r, n.Name), n.X+float64(r)*2000, n.Y)
		}
		for _, e := range rg.Edges() {
			if _, err := g.AddEdge(base+e.From, base+e.To, e.Wavelengths, e.GbpsPerWave); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// submitBody is the POST /v1/jobs request body the harness sends. IDs and
// arrival stamps are pinned so the daemon's inputs depend on the seed
// alone, never on the wall clock.
type submitBody struct {
	ID       int     `json:"id"`
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Size     float64 `json:"size"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Arrival  float64 `json:"arrival"`
	Tenant   string  `json:"tenant"`
	Priority string  `json:"priority"`
}

// trace is the seed-determined input of one run: per-epoch submissions
// plus the storm phases.
type trace struct {
	Epochs  [][]submitBody   // Epochs[e]: arrivals submitted before tick e
	Singles [][]submitBody   // intake-storm phase A, one slice per client
	Batches [][][]submitBody // intake-storm phase B, [client][request][job]
}

// drawClass mixes 10 % critical / 70 % standard / 20 % scavenger.
func drawClass(rng *rand.Rand) string {
	switch u := rng.Float64(); {
	case u < 0.1:
		return "critical"
	case u < 0.8:
		return "standard"
	default:
		return "scavenger"
	}
}

// mixSeed derives an independent generator seed from the run seed and a
// stream index (splitmix64 finalizer), so epochs and regions never share
// a random stream.
func mixSeed(seed int64, stream int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// genTrace builds the run's submissions. The base trace — endpoints, sizes
// U[1,100] GB scaled by the load factor, windows U[4,8] slices starting in
// [eτ, eτ+2], drawn with workload.Generate per region so every job stays
// inside one region, and each job's priority class (which scales its stage-2
// weight) — comes from the workload's TopoSeed and is part of the frozen
// sizing. The run seed draws each job's tenant and perturbs every size by up
// to ±SizeJitter. ±1 % is enough to send every LP down another pivot
// sequence without replacing the workload: calibration (README.md) measured
// epoch_total_s spreads of 0.16–0.41 over ten fully re-drawn traces and 0.33
// on steady-ret at ±5 % (one epoch's RET search took 0.2 s or 0.9 s depending
// on the seed), none of which a bound ≤ 0.25 survives. steady-colgen takes no
// size jitter at all: any perturbation, ±1 % as much as ±5 %, re-routes its
// pricing rounds and changes single epochs' times 1.3–1.8×, so its seeds
// would measure the draw (epoch_total_s 2.3–3.3 s over four seeds), not the
// code.
func genTrace(s spec, seed int64, epochs int) (*trace, error) {
	regions := s.Regions
	if regions < 1 {
		regions = 1
	}
	region, err := buildGraph(spec{Name: s.Name, Nodes: s.Nodes, Pairs: s.Pairs, TopoSeed: s.TopoSeed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, 0)))
	classes := rand.New(rand.NewSource(mixSeed(s.TopoSeed, 1<<21)))
	tr := &trace{}
	nextID := 1
	tag := func(j job.Job, nodeBase int, shift float64) submitBody {
		b := submitBody{
			ID: nextID, Src: int(j.Src) + nodeBase, Dst: int(j.Dst) + nodeBase,
			Size:  j.Size * (1 + s.SizeJitter*(2*rng.Float64()-1)),
			Start: j.Start + shift, End: j.End + shift, Arrival: shift,
			Tenant: fmt.Sprintf("t%d", rng.Intn(4)), Priority: drawClass(classes),
		}
		nextID++
		return b
	}
	gen := func(n, stream int, spread float64) ([]job.Job, error) {
		return workload.Generate(region, workload.Config{
			Jobs: n, StartSpread: spread, MinWindow: 4, MaxWindow: 8,
			GBToDemand: workload.GBToDemandFactor(gbpsPerWave, sliceSecs) * s.Load,
			Seed:       mixSeed(s.TopoSeed, stream),
		})
	}
	for e := 0; e < epochs; e++ {
		var ep []submitBody
		for r := 0; r < regions; r++ {
			n := s.Arrivals / regions
			if r < s.Arrivals%regions {
				n++
			}
			jobs, err := gen(n, e*regions+r, tau)
			if err != nil {
				return nil, err
			}
			for _, j := range jobs {
				ep = append(ep, tag(j, r*s.Nodes, float64(e)*tau))
			}
		}
		tr.Epochs = append(tr.Epochs, ep)
	}
	// Storm jobs open a million slices out: accepted, durable, pending, and
	// never reached by an epoch of the run.
	const far = 1e6
	for c := 0; c < stormClients; c++ {
		jobs, err := gen(s.StormSingles+s.StormBatches*s.StormBatchSize, 1<<20+c, 1000)
		if err != nil {
			return nil, err
		}
		var singles []submitBody
		for _, j := range jobs[:s.StormSingles] {
			singles = append(singles, tag(j, 0, far))
		}
		tr.Singles = append(tr.Singles, singles)
		var reqs [][]submitBody
		for i := s.StormSingles; i < len(jobs); i += s.StormBatchSize {
			var batch []submitBody
			for _, j := range jobs[i : i+s.StormBatchSize] {
				batch = append(batch, tag(j, 0, far))
			}
			reqs = append(reqs, batch)
		}
		tr.Batches = append(tr.Batches, reqs)
	}
	return tr, nil
}
