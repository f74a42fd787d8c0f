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
	cache *PathCache
	dead  DeadLinks
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
	inst := &Instance{G: g, Grid: grid, Jobs: jobs}
	dead := NewDeadLinks(g)
	if opts.ColumnGen {
		inst.colgen = &colgenInfo{cache: opts.PathCache, dead: dead}
	}
	sets := make(map[[2]netgraph.NodeID][]paths.Path)
	for _, j := range jobs {
		first, last, ok := grid.Window(j.Start, j.End)
		if !ok {
			return nil, fmt.Errorf("schedule: job %d window [%g, %g] covers no whole slice of the grid",
				j.ID, j.Start, j.End)
		}
		key := [2]netgraph.NodeID{j.Src, j.Dst}
		ps, seen := sets[key]
		if !seen {
			ps = PathSet(g, j.Src, j.Dst, dead, opts)
			sets[key] = ps
		}
		if len(ps) == 0 {
			return nil, fmt.Errorf("schedule: job %d has no path from %d to %d", j.ID, j.Src, j.Dst)
		}
		inst.JobPaths = append(inst.JobPaths, ps)
		inst.windows = append(inst.windows, window{first, last})
	}
	return inst, nil
}

// DeadLinks is the set of a topology's zero-wavelength edges — links failed
// in a residual topology (netgraph.Graph.WithLinksDown), or never lit —
// with the key PathCache files path sets under. No path set uses a dead
// link: a job whose only allowed paths crossed one would be admitted and
// then starve.
type DeadLinks struct {
	edges map[netgraph.EdgeID]bool
	key   string
}

// NewDeadLinks collects g's zero-wavelength edges.
func NewDeadLinks(g *netgraph.Graph) DeadLinks {
	var edges map[netgraph.EdgeID]bool
	for _, e := range g.Edges() {
		if e.Wavelengths == 0 {
			if edges == nil {
				edges = make(map[netgraph.EdgeID]bool)
			}
			edges[e.ID] = true
		}
	}
	return DeadLinks{edges: edges, key: avoidKey(edges)}
}

// Edges returns the dead links as a set, for a search that must avoid them.
func (d DeadLinks) Edges() map[netgraph.EdgeID]bool { return d.edges }

// PathSet returns the allowed paths of the pair (src, dst) over g, whose
// dead links dead must hold: Yen's opts.K shortest by hop count, or under
// opts.ColumnGen the column-generation starting set, through opts.PathCache
// when one is set. It is NewInstanceOpts' per-pair lookup; a caller that
// runs it ahead of the build (the controller, when it accepts a job) leaves
// the build a cache hit.
func PathSet(g *netgraph.Graph, src, dst netgraph.NodeID, dead DeadLinks, opts InstanceOptions) []paths.Path {
	k := opts.K
	if k <= 0 {
		k = 4
	}
	compute := func() []paths.Path {
		if opts.ColumnGen {
			return paths.EdgeDisjointAvoiding(g, src, dst, seedPaths, paths.UnitCost, dead.edges)
		}
		return paths.KShortestAvoiding(g, src, dst, k, paths.UnitCost, dead.edges)
	}
	if opts.PathCache == nil {
		return compute()
	}
	// Under ColumnGen the entry starts as the seed set and is overwritten by
	// every GeneratePaths run with the seeds plus the paths its master optima
	// used.
	ck := pathCacheKey{src: src, dst: dst, k: k, avoid: dead.key}
	if opts.ColumnGen {
		ck.k, ck.colgen = seedPaths, true
	}
	return opts.PathCache.get(ck, compute)
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
