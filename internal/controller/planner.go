package controller

import (
	"fmt"
	"sync"

	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
)

// planner is one overload policy behind the epoch loop: it solves an
// epoch's instance with whatever it carries between epochs, and drops the
// carry a link event makes stale. New picks the planner once from
// Config.Policy; nothing else in the controller asks which policy runs.
type planner interface {
	// plan solves inst for the snapshot fresh (aligned with inst's jobs)
	// at now and returns the integer plan. It fills info as it goes, so a
	// failed or panicking solve still leaves what it streamed there.
	plan(inst *schedule.Instance, fresh []*activeJob, now float64, info *solveInfo) (*schedule.Assignment, error)
	// invalidate drops the carry that the failure (up false) or repair
	// (up true) of link e makes stale.
	invalidate(e netgraph.EdgeID, up bool)
}

// solveInfo captures the policy solve of one epoch for audit records and
// the flight-recorder frame.
type solveInfo struct {
	bhat, b    float64
	components int
	// probes is the RET search trajectory, including probes whose solve
	// failed: a forced lp timeout must still leave its trajectory for the
	// flight recorder.
	probes []schedule.ProbeStep
}

// stretch is the RET extension of a window ending at end, planned at now:
// now + (end − now)(1 + b).
func stretch(now, end, b float64) float64 { return now + (end-now)*(1+b) }

// maxThroughputPlanner runs the two-stage algorithm with LPDAR, the
// paper's action (ii). It also plans for PolicyReject, whose admission
// trim runs before planning.
type maxThroughputPlanner struct {
	c *Controller
	// oneBlock solves every instance as one block instead of its
	// independent components: the oracle the decomposed path is tested
	// against.
	oneBlock bool
	// planCache carries per-component stage-1/stage-2 plans between
	// epochs under Config.Incremental, replaced wholesale by every solve.
	// Structural matching makes stale entries harmless, but link events
	// clear it anyway: the residual-graph swap would defeat every match
	// until the next full solve regardless.
	planCache *schedule.PlanCache
}

func (p *maxThroughputPlanner) plan(inst *schedule.Instance, fresh []*activeJob, now float64, info *solveInfo) (*schedule.Assignment, error) {
	c := p.c
	scfg := schedule.Config{
		Alpha: c.cfg.Alpha, AlphaGrowth: 0.1, Solver: c.solverOpts(),
		Weight: c.cfg.Weight, WarmStart: c.cfg.WarmStart,
		Monolithic: p.oneBlock,
	}
	var res *schedule.Result
	var err error
	if c.cfg.Incremental {
		res, p.planCache, err = schedule.MaxThroughputIncremental(inst, scfg, p.planCache)
	} else {
		res, err = schedule.MaxThroughput(inst, scfg)
	}
	if err != nil {
		return nil, fmt.Errorf("controller: epoch at t=%g: %w", now, err)
	}
	info.components = res.Components
	detail := fmt.Sprintf("policy=max_throughput z*=%g alpha=%g components=%d",
		res.ZStar, res.Alpha, res.Components)
	if c.cfg.ColumnGen { // elsewhere every plan is a cold solve's
		detail += " plan=" + res.Plan
	}
	for _, aj := range fresh {
		c.note(aj, now, AuditEvent{Kind: AuditPlanned, Detail: detail})
	}
	return res.LPDAR, nil
}

func (p *maxThroughputPlanner) invalidate(netgraph.EdgeID, bool) {
	// The plan cache is pinned to the graph object it was built on.
	p.planCache = nil
}

// retPlanner runs Algorithm 2, the paper's action (iii): every job
// completes in full, and a successful solve extends the effective
// deadlines of the snapshot.
type retPlanner struct {
	c        *Controller
	oneBlock bool // as on maxThroughputPlanner
	// warm chains RET probe bases and certificates across epochs under
	// Config.WarmStart, one entry per decomposition component keyed by its
	// job-ID fingerprint and tagged with its edge set. A changed job mix
	// simply misses the map for the affected components (the lp layer
	// would reject the structural mismatch anyway), and a link failure
	// evicts only the components whose paths used the failed edge.
	warm map[string]*schedule.ComponentBasis
}

func (p *retPlanner) plan(inst *schedule.Instance, fresh []*activeJob, now float64, info *solveInfo) (*schedule.Assignment, error) {
	c := p.c
	var probeMu sync.Mutex // per-component searches run on a worker pool
	res, err := schedule.SolveRET(inst, schedule.RETConfig{
		BMax: c.cfg.BMax, Solver: c.solverOpts(),
		Monolithic: p.oneBlock,
		// Hand the previous epoch's probe bases AND certificates over per
		// component — a fully coupled epoch is one component keyed by all
		// its jobs. An entry captured over other path sets is declined by
		// its PathsKey, a mismatched basis is merely a wasted lp fallback,
		// and a stale certificate self-declines — never a wrong answer.
		WarmStart: c.cfg.WarmStart, Certificates: c.cfg.WarmStart,
		WarmComponents: p.warm,
		OnProbe: func(st schedule.ProbeStep) {
			probeMu.Lock()
			info.probes = append(info.probes, st)
			probeMu.Unlock()
		},
	})
	if err != nil {
		// A failed search (typically infeasible even at BMax) still exports
		// certificates; merging them in lets the next epoch — often just as
		// overloaded — refute its ceiling probe without a solve. Merge
		// rather than replace: components the failed search never reached
		// keep their carried entries.
		if c.cfg.WarmStart && res != nil && len(res.ProbeBases) > 0 {
			if p.warm == nil {
				p.warm = make(map[string]*schedule.ComponentBasis, len(res.ProbeBases))
			}
			for k, v := range res.ProbeBases {
				p.warm[k] = v
			}
		}
		return nil, fmt.Errorf("controller: epoch at t=%g: %w", now, err)
	}
	if c.cfg.WarmStart {
		// Replace wholesale: entries for components that dissolved this
		// epoch are pruned automatically.
		p.warm = res.ProbeBases
	}
	info.bhat, info.b, info.components = res.BHat, res.B, res.Components
	// Renegotiated deadlines: extend every active job's effective end, and
	// leave each job a planned event naming the component and the probe
	// bound that fixed its schedule.
	for i, aj := range fresh {
		comp := ""
		compBHat := res.BHat
		if i < len(res.JobComponents) {
			comp = res.JobComponents[i]
			if v, ok := res.BHats[comp]; ok {
				compBHat = v
			}
		}
		c.note(aj, now, AuditEvent{
			Kind: AuditPlanned, Component: comp, BHat: compBHat, B: res.B,
			Detail: fmt.Sprintf("policy=ret components=%d delta_rounds=%d", res.Components, res.Rounds),
		})
		if ext := stretch(now, aj.orig.End, res.B); ext > aj.effectiveEnd {
			c.note(aj, now, AuditEvent{
				Kind: AuditExtended, B: res.B,
				Detail: fmt.Sprintf("effective deadline %g -> %g (b=%g)", aj.effectiveEnd, ext, res.B),
			})
			aj.effectiveEnd = ext
		}
	}
	return res.LPDAR, nil
}

// invalidate evicts, on a failure, the entries of components whose path
// sets touch e: components that never routed over e keep their bases,
// since their k-shortest path sets over the residual topology are
// unchanged. A repair can reroute any job's candidate paths and merge
// components, so every fingerprint may shift: it clears the carry.
func (p *retPlanner) invalidate(e netgraph.EdgeID, up bool) {
	if up {
		p.warm = nil
		return
	}
	for key, cb := range p.warm {
		for _, ce := range cb.Edges {
			if ce == e {
				delete(p.warm, key)
				break
			}
		}
	}
}
