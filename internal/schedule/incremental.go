package schedule

import "wavesched/internal/telemetry"

// Incremental re-planning telemetry.
var (
	telIncrReused = telemetry.Default().Counter("schedule_incremental_reused_components_total",
		"Components whose cached plan was reused verbatim by an incremental solve.")
	telIncrDirty = telemetry.Default().Counter("schedule_incremental_dirty_components_total",
		"Components re-solved from scratch by an incremental solve.")
)

// ComponentPlan is one component's cached solution: everything needed to
// skip both solver stages when the component reappears untouched in a
// later instance.
type ComponentPlan struct {
	// Key is the component's job-ID fingerprint (Component.Key).
	Key string
	// Inst is the sub-instance the plan was solved on, kept for the
	// structural match against a candidate component.
	Inst *Instance
	// ZStarC is the component's stage-1 optimum.
	ZStarC float64
	// LadderAlpha is the first feasible α of the component's Remark-1
	// ladder at the caching solve's global Z*.
	LadderAlpha float64
	// SolvedAlpha is the α the cached Frac was extracted at — the global
	// α of the caching solve (≥ LadderAlpha).
	SolvedAlpha float64
	// Frac is the fractional stage-2 optimum at SolvedAlpha, shaped for
	// Inst's grid.
	Frac *Assignment
}

// PlanCache carries per-component plans between incremental solves. It is
// rebuilt wholesale by every MaxThroughputIncremental call (entries for
// vanished components drop out; every surviving component's plan is
// refreshed to the current grid), so it never grows beyond the live
// component set and never retains stale grids.
type PlanCache struct {
	// ZStar is the global stage-1 optimum of the caching solve. Cached
	// stage-2 state is only valid while the global Z* is bit-identical:
	// the fairness floor (1−α)·Z* enters every component's LP.
	ZStar float64
	// Plans maps Component.Key to the component's cached plan.
	Plans map[string]*ComponentPlan
}

// matchPlan reports whether a cached component plan is the plan of a
// candidate component: the two sub-instances pose the same stage-2 LP on
// the same slices of the grid. The checks below establish exactly that:
//
//   - same graph object (the controller swaps the graph pointer on any
//     topology event, so pointer equality certifies identical capacities
//     and path feasibility),
//   - no per-slice capacity overrides on either side,
//   - identical jobs (struct equality: size, window, endpoints — a job
//     that transferred bytes or slid its window fails this),
//   - identical candidate path sets,
//   - every job's slice window the same, with matching slice durations
//     across it.
//
// A uniformly shifted grid poses the same LP too, but not the same plan:
// the Quick-Finish weights γ(j) = j + 1 of the lexicographic phase that ends
// every stage-2 solve count slices from the grid's origin. A moving horizon
// therefore re-solves every component every epoch; what reuse is left is
// between solves on one grid.
func matchPlan(cp *ComponentPlan, c *Component) bool {
	old, cur := cp.Inst, c.Inst
	if old.G != cur.G {
		return false
	}
	if len(old.capOverride) != 0 || len(cur.capOverride) != 0 {
		return false
	}
	if len(old.Jobs) != len(cur.Jobs) {
		return false
	}
	for k := range cur.Jobs {
		if old.Jobs[k] != cur.Jobs[k] || old.windows[k] != cur.windows[k] {
			return false
		}
		if len(old.JobPaths[k]) != len(cur.JobPaths[k]) {
			return false
		}
		for p := range cur.JobPaths[k] {
			po, pn := old.JobPaths[k][p].Edges, cur.JobPaths[k][p].Edges
			if len(po) != len(pn) {
				return false
			}
			for e := range pn {
				if po[e] != pn[e] {
					return false
				}
			}
		}
		for j := cur.windows[k].first; j <= cur.windows[k].last; j++ {
			if j >= old.Grid.Num() || old.Grid.Len(j) != cur.Grid.Len(j) {
				return false
			}
		}
	}
	return true
}

// regridFrac copies a cached fractional assignment into the shape of the
// new instance's grid. The two grids agree on every slice inside a job
// window (matchPlan); slices the old grid did not have stay zero, as the LP
// pins them.
func regridFrac(old *Assignment, newInst *Instance) *Assignment {
	out := NewAssignment(newInst)
	for k := range out.X {
		for p := range out.X[k] {
			copy(out.X[k][p], old.X[k][p])
		}
	}
	return out
}

// MaxThroughputIncremental is MaxThroughput with component-level reuse:
// components of the instance that are unchanged since the caching solve
// (per matchPlan) skip stage 1 entirely and, while the global Z* is
// unchanged, reuse their cached stage-2 fractional optimum instead of
// re-solving. The returned result is byte-identical to MaxThroughput's:
// reuse only substitutes the solution the same solve of the same LP
// returned last time. A grid that moved since the caching solve matches
// nothing (matchPlan), so under a moving horizon every component re-solves.
//
// The returned cache replaces the caller's previous one wholesale; pass
// it to the next call. A nil cache simply solves everything. The cache
// covers the partition the solve ran over, so an instance that is one block
// (or Config.Monolithic) is cached as one plan.
func MaxThroughputIncremental(inst *Instance, cfg Config, cache *PlanCache) (*Result, *PlanCache, error) {
	if cache == nil {
		cache = &PlanCache{}
	}
	return maxThroughput(inst, nil, cfg, cache)
}
