// Package schedule implements the paper's admission-control and scheduling
// algorithms for time-constrained bulk transfers on wavelength-switched
// networks:
//
//   - Stage 1 (MCF): the maximum-concurrent-throughput linear program that
//     computes Z*, the largest common demand scale the network can carry.
//   - Stage 2: size-weighted throughput maximization with the fairness
//     floor Z_i ≥ (1−α)·Z*, solved fractionally (LP) and integerized by
//     truncation (LPD) and by truncation plus greedy residual-bandwidth
//     adjustment (LPDAR, the paper's Algorithm 1).
//   - RET: the Relaxing-End-Times algorithm (the paper's Algorithm 2),
//     which finds the smallest end-time extension factor (1+b) under which
//     every job completes in full, using the Quick-Finish objective.
//
// All optimization runs on the from-scratch simplex in internal/lp.
package schedule

import (
	"fmt"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/timeslice"
)

// Instance is one AC/scheduling problem: a network, a slice grid covering
// the horizon, the jobs known to the controller, and each job's allowed
// path set (the paper's P(s_i, d_i, j); path sets here are constant across
// slices, the common case, while windows restrict when they may carry
// flow).
type Instance struct {
	G    *netgraph.Graph
	Grid *timeslice.Grid
	Jobs []job.Job

	// JobPaths[k] lists the allowed paths of Jobs[k].
	JobPaths [][]paths.Path

	// windows[k] is the inclusive slice range of Jobs[k].
	windows []window

	// capOverride holds sparse per-(edge, slice) capacity overrides for
	// the paper's time-varying C_e(j); nil entries fall back to the edge's
	// wavelength count.
	capOverride map[capKey]int

	// colgen, when non-nil, carries the column-generation context captured
	// at build time (seed parameters, avoided-edge set, the cache to
	// publish discovered path sets into) for GeneratePaths.
	colgen *colgenInfo

	// provenZ, when non-nil, is the stage-1 optimum GeneratePaths proved
	// over the full path space. It holds for JobPaths as GeneratePaths left
	// them and for any superset; SetCapacity drops it. Sub-instances from
	// Decompose do not inherit it.
	provenZ *float64

	// masterPlan, when non-nil, is the stage-2 plan GeneratePaths took from
	// its priced whole-instance master (see masterPlan). Same lifetime as
	// provenZ.
	masterPlan *masterPlan

	// cells, when non-nil, is the capacity-row layout of the instance's
	// closed models (see closedCells): which loaded (edge, slice) cells get a
	// row and which are dominated. A function of the path sets, the windows
	// and the capacities; same lifetime as provenZ.
	cells *capCells
}

// forgetDerived drops what was derived from the instance's path sets and
// capacities — GeneratePaths' proof and plan, the capacity-row layout — when
// either is about to change.
func (in *Instance) forgetDerived() {
	in.provenZ, in.masterPlan, in.cells = nil, nil, nil
}

// colgenInfo is the column-generation build context of an instance.
type colgenInfo struct {
	cache    *PathCache
	avoid    map[netgraph.EdgeID]bool
	avoidStr string
}

// seedPaths is the per-pair seed set size under ColumnGen.
const seedPaths = 2

type capKey struct {
	e netgraph.EdgeID
	j int
}

// SetCapacity overrides the wavelength capacity of edge e on slice j
// (C_e(j) in the paper) — for example to model a maintenance window with
// capacity 0, or a slice where some wavelengths are pre-reserved.
func (in *Instance) SetCapacity(e netgraph.EdgeID, j, c int) error {
	if int(e) < 0 || int(e) >= in.G.NumEdges() {
		return fmt.Errorf("schedule: unknown edge %d", e)
	}
	if j < 0 || j >= in.Grid.Num() {
		return fmt.Errorf("schedule: slice %d outside the grid", j)
	}
	if c < 0 {
		return fmt.Errorf("schedule: negative capacity %d", c)
	}
	if in.capOverride == nil {
		in.capOverride = make(map[capKey]int)
	}
	in.capOverride[capKey{e, j}] = c
	in.forgetDerived()
	return nil
}

// Capacity returns C_e(j): the number of wavelengths available on edge e
// during slice j.
func (in *Instance) Capacity(e netgraph.EdgeID, j int) int {
	if c, ok := in.capOverride[capKey{e, j}]; ok {
		return c
	}
	return in.G.Edge(e).Wavelengths
}

type window struct {
	first, last int
}

// holds reports whether slice j lies in the window.
func (w window) holds(j int) bool { return w.first <= j && j <= w.last }

// InstanceOptions tunes path-set construction. Paths are Yen's k-shortest
// by hop count.
type InstanceOptions struct {
	// K is the maximum number of allowed paths per job (paper: 4–8).
	// Non-positive selects 4.
	K int
	// PathCache, when non-nil, memoizes path sets across instance builds,
	// keyed by (src, dst, K, avoided-edge set). The cache must be dedicated
	// to one base topology; see PathCache.
	PathCache *PathCache
	// ColumnGen selects column-generation mode: instead of eagerly
	// enumerating K paths per job, each job starts from a small seed set
	// (two greedy edge-disjoint shortest paths) and GeneratePaths grows it
	// on demand by LP pricing. K is ignored for seeding. With a PathCache,
	// what an earlier GeneratePaths run under the same avoid set published
	// (the seeds plus the paths its master optima used) is this build's
	// starting set.
	ColumnGen bool
}

// NewInstance validates the jobs and computes k-shortest-path sets for
// each. Jobs whose window covers no whole slice or that have no path are
// rejected with an error: the paper assumes every considered job can be
// scheduled in principle.
func NewInstance(g *netgraph.Graph, grid *timeslice.Grid, jobs []job.Job, k int) (*Instance, error) {
	return NewInstanceOpts(g, grid, jobs, InstanceOptions{K: k})
}

// NewInstanceOpts is NewInstance with full path-construction control.
func NewInstanceOpts(g *netgraph.Graph, grid *timeslice.Grid, jobs []job.Job, opts InstanceOptions) (*Instance, error) {
	if err := job.ValidateAll(jobs); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		opts.K = 4
	}
	inst := &Instance{G: g, Grid: grid, Jobs: jobs}
	// Dead links (zero wavelengths — e.g. failed links in a residual
	// topology) can never carry flow, so keep them out of path sets
	// entirely; otherwise a job whose only allowed paths cross a dead link
	// would be admitted and then starve.
	var avoid map[netgraph.EdgeID]bool
	for _, e := range g.Edges() {
		if e.Wavelengths == 0 {
			if avoid == nil {
				avoid = make(map[netgraph.EdgeID]bool)
			}
			avoid[e.ID] = true
		}
	}
	avoidStr := ""
	if opts.PathCache != nil {
		avoidStr = avoidKey(avoid)
	}
	if opts.ColumnGen {
		inst.colgen = &colgenInfo{
			cache:    opts.PathCache,
			avoid:    avoid,
			avoidStr: avoidStr,
		}
	}
	compute := func(src, dst netgraph.NodeID) []paths.Path {
		if opts.ColumnGen {
			return paths.EdgeDisjointAvoiding(g, src, dst, seedPaths, paths.UnitCost, avoid)
		}
		return paths.KShortestAvoiding(g, src, dst, opts.K, paths.UnitCost, avoid)
	}
	cache := make(map[[2]netgraph.NodeID][]paths.Path)
	for _, j := range jobs {
		first, last, ok := grid.Window(j.Start, j.End)
		if !ok {
			return nil, fmt.Errorf("schedule: job %d window [%g, %g] covers no whole slice of the grid",
				j.ID, j.Start, j.End)
		}
		key := [2]netgraph.NodeID{j.Src, j.Dst}
		ps, seen := cache[key]
		if !seen {
			if opts.PathCache != nil {
				// Under ColumnGen the entry starts as the seed set and is
				// overwritten by every GeneratePaths run with the seeds plus
				// the paths its master optima used.
				ck := pathCacheKey{src: j.Src, dst: j.Dst, k: opts.K, avoid: avoidStr}
				if opts.ColumnGen {
					ck.k, ck.colgen = seedPaths, true
				}
				ps = opts.PathCache.get(ck, func() []paths.Path { return compute(j.Src, j.Dst) })
			} else {
				ps = compute(j.Src, j.Dst)
			}
			cache[key] = ps
		}
		if len(ps) == 0 {
			return nil, fmt.Errorf("schedule: job %d has no path from %d to %d", j.ID, j.Src, j.Dst)
		}
		inst.JobPaths = append(inst.JobPaths, ps)
		inst.windows = append(inst.windows, window{first, last})
	}
	return inst, nil
}

// MaskLinksDown zeroes C_e(j) for every listed edge over the inclusive
// slice range [firstSlice, lastSlice] — the per-slice capacity mask for a
// link outage known (or predicted) to span those slices.
func (in *Instance) MaskLinksDown(down []netgraph.EdgeID, firstSlice, lastSlice int) error {
	for _, e := range down {
		for j := firstSlice; j <= lastSlice; j++ {
			if err := in.SetCapacity(e, j, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// Window returns the inclusive usable slice range of job index k.
func (in *Instance) Window(k int) (first, last int) {
	w := in.windows[k]
	return w.first, w.last
}

// NumJobs returns the job count.
func (in *Instance) NumJobs() int { return len(in.Jobs) }

// TotalDemand returns ΣD_i.
func (in *Instance) TotalDemand() float64 {
	t := 0.0
	for _, j := range in.Jobs {
		t += j.Size
	}
	return t
}

// jobIndex maps a job ID to its position in Jobs, or -1.
func (in *Instance) jobIndex(id job.ID) int {
	for k, j := range in.Jobs {
		if j.ID == id {
			return k
		}
	}
	return -1
}
