package controller

import (
	"fmt"
	"sync"

	"wavesched/internal/schedule"
)

// planner is one overload policy behind the epoch loop: it solves each
// epoch's instance in full and carries nothing between epochs. New picks
// the planner once from Config.Policy; nothing else in the controller asks
// which policy runs.
type planner interface {
	// plan solves inst for the snapshot fresh (aligned with inst's jobs)
	// at now and returns the integer plan. It fills info as it goes, so a
	// failed or panicking solve still leaves what it streamed there.
	plan(inst *schedule.Instance, fresh []*activeJob, now float64, info *solveInfo) (*schedule.Assignment, error)
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
}

func (p *maxThroughputPlanner) plan(inst *schedule.Instance, fresh []*activeJob, now float64, info *solveInfo) (*schedule.Assignment, error) {
	c := p.c
	scfg := schedule.Config{
		Alpha: c.cfg.Alpha, AlphaGrowth: 0.1, Solver: c.solverOpts(),
		Weight: c.cfg.Weight, Monolithic: p.oneBlock,
	}
	res, err := schedule.MaxThroughput(inst, scfg)
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

// retPlanner runs Algorithm 2, the paper's action (iii): every job
// completes in full, and a successful solve extends the effective
// deadlines of the snapshot. Each search starts from its own ceiling
// solve.
type retPlanner struct {
	c        *Controller
	oneBlock bool // as on maxThroughputPlanner
}

func (p *retPlanner) plan(inst *schedule.Instance, fresh []*activeJob, now float64, info *solveInfo) (*schedule.Assignment, error) {
	c := p.c
	var probeMu sync.Mutex // per-component searches run on a worker pool
	res, err := schedule.SolveRET(inst, schedule.RETConfig{
		BMax: c.cfg.BMax, Solver: c.solverOpts(),
		Monolithic: p.oneBlock,
		OnProbe: func(st schedule.ProbeStep) {
			probeMu.Lock()
			info.probes = append(info.probes, st)
			probeMu.Unlock()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("controller: epoch at t=%g: %w", now, err)
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
