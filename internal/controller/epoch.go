package controller

import (
	"fmt"
	"math"
	"strings"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
)

// RunEpoch performs one scheduling instant at the current time: settle the
// previous period, admit the pending requests, re-optimize all unfinished
// jobs, commit the integer schedule for [now, now+τ), and advance the
// clock by τ. Transfers under the new schedule are credited lazily — at
// the next epoch, at link events, or when Records is read.
func (c *Controller) RunEpoch() error {
	c.settleAll()
	c.Epochs++
	now := c.now
	c.applied(now)
	start := time.Now()
	// The epoch index is the trace ID: it is stable across restarts and
	// WAL replay, so a trace (and the audit records stamped with it)
	// regenerates identically on a rebuilt server.
	sp := c.cfg.Tracer.WithTrace(int64(c.Epochs)).Start("controller.epoch")
	c.epochTracer = sp.Tracer()
	c.epochPanicked = false
	c.lastSolve = nil
	lp0 := lpCounters()
	stat := EpochStat{Time: now}
	defer func() {
		c.epochs = append(c.epochs, stat)
		telEpochs.Inc()
		telEpochSeconds.ObserveSince(start)
		telAdmitted.Add(int64(stat.Admitted))
		telActiveJobs.Set(float64(c.ActiveCount()))
		telUtilization.Set(stat.Utilization)
		if stat.Degraded {
			telDegraded.Inc()
		}
		if c.cfg.Tracer != nil {
			attrs := []telemetry.Attr{
				telemetry.KV("t", now),
				telemetry.KV("active_jobs", stat.ActiveJobs),
				telemetry.KV("admitted", stat.Admitted),
				telemetry.KV("rejected", stat.Rejected),
				telemetry.KV("utilization", stat.Utilization),
			}
			if stat.Degraded {
				attrs = append(attrs, telemetry.KV("tier", stat.Tier))
			}
			sp.End(attrs...)
		}
		c.epochTracer = nil
		if c.cfg.FlightRecorder != nil {
			c.recordFrame(stat, time.Since(start), lp0)
		}
	}()

	if err := c.admit(now, &stat); err != nil {
		return err
	}
	// Retire active jobs whose remaining window can no longer hold a whole
	// slice: nothing further can be scheduled for them.
	var usable []*activeJob
	for _, aj := range c.active {
		switch {
		case aj.retired:
		case c.fitsSlice(aj.orig.Start, aj.effectiveEnd, now):
			usable = append(usable, aj)
		default:
			c.expire(aj, "remaining window cannot hold one slice; nothing further schedulable")
		}
	}
	c.active = usable

	if len(c.active) == 0 {
		c.now += c.cfg.Tau
		return nil
	}

	// Build the scheduling instance and solve, degrading instead of
	// failing: full policy → LPD → carry-forward → idle.
	plan, fresh, tier := c.solveChain(now)
	cmFresh := fresh
	if plan == nil {
		if c.prevPlan != nil {
			plan, cmFresh, tier = c.prevPlan, c.prevFresh, TierCarry
		} else {
			tier = TierIdle
		}
		c.logger.Warn("controller: degraded epoch", "t", now, "tier", tier)
	}
	stat.Tier = tier
	stat.Degraded = tier != TierFull
	if stat.Degraded {
		for _, aj := range fresh {
			c.note(aj, now, AuditEvent{Kind: AuditDegraded, Detail: fmt.Sprintf("epoch fell back to tier %q", tier)})
		}
	}

	stat.ActiveJobs = len(fresh)
	stat.Scheduled, stat.Capacity = c.periodUsage(plan, now)
	if stat.Capacity > 0 {
		stat.Utilization = stat.Scheduled / stat.Capacity
	}
	if plan != nil {
		c.commit = &commitment{
			plan: plan, fresh: cmFresh,
			start: now, end: now + c.cfg.Tau, settled: now,
		}
	}
	c.now += c.cfg.Tau
	return nil
}

// lpCounters reads the lp counters an epoch frame reports as deltas: warm
// hits, warm fallbacks and timeouts.
func lpCounters() [3]int64 {
	reg := telemetry.Default()
	var v [3]int64
	for i, name := range []string{"lp_warmstart_hits_total", "lp_warmstart_fallbacks_total", "lp_solve_timeouts_total"} {
		v[i], _ = reg.CounterValue(name, nil)
	}
	return v
}

// recordFrame hands the flight recorder the frame of the epoch that just
// ran, and dumps the ring when the frame shows an anomaly.
func (c *Controller) recordFrame(stat EpochStat, dur time.Duration, lp0 [3]int64) {
	lp1 := lpCounters()
	frame := EpochFrame{
		Epoch: c.Epochs, Time: stat.Time, Trace: int64(c.Epochs), Tier: stat.Tier,
		ActiveJobs: stat.ActiveJobs, Admitted: stat.Admitted, Rejected: stat.Rejected,
		Utilization: stat.Utilization,
		DurUS:       float64(dur) / float64(time.Microsecond),
		WarmHits:    lp1[0] - lp0[0], WarmFallbacks: lp1[1] - lp0[1],
		LPTimeouts: lp1[2] - lp0[2],
		Panic:      c.epochPanicked,
	}
	if ls := c.lastSolve; ls != nil {
		frame.Components, frame.BHat, frame.B = ls.components, ls.bhat, ls.b
		frame.Probes = append([]schedule.ProbeStep(nil), ls.probes...)
	}
	var anoms []string
	if frame.LPTimeouts > 0 {
		anoms = append(anoms, "lp_timeout")
	}
	if frame.Panic {
		anoms = append(anoms, "panic")
	}
	if stat.Degraded && stat.Tier != "" {
		anoms = append(anoms, "degraded_"+stat.Tier)
	}
	if frame.WarmFallbacks >= 2 && frame.WarmFallbacks > frame.WarmHits {
		anoms = append(anoms, "cold_fallback_spike")
	}
	frame.Anomalies = anoms
	fr := c.cfg.FlightRecorder
	fr.Record(frame)
	if len(anoms) > 0 {
		reason := strings.Join(anoms, "+")
		if path, err := fr.Dump(reason); err != nil {
			c.logger.Warn("controller: flight-recorder dump failed", "reason", reason, "err", err)
		} else {
			c.logger.Warn("controller: flight-recorder dump", "reason", reason, "path", path)
		}
	}
}

// note appends an audit event about aj, stamped with the current epoch and
// the planning instant now.
func (c *Controller) note(aj *activeJob, now float64, ev AuditEvent) {
	ev.Epoch, ev.Time, ev.Trace = c.Epochs, now, int64(c.Epochs)
	c.appendAudit(aj.orig.ID, ev)
}

// fitsSlice reports whether the window [start, end], clipped to begin no
// earlier than from, holds one whole slice.
func (c *Controller) fitsSlice(start, end, from float64) bool {
	return end-math.Max(start, from) >= c.cfg.SliceLen-1e-9
}

// reach is the latest end the planner may give a window that ends at end,
// planning at now: end itself, or its stretch by BMax under RET.
func (c *Controller) reach(now, end float64) float64 {
	if !c.extends {
		return end
	}
	return stretch(now, end, c.cfg.BMax)
}

// clip moves a job's window start, and its arrival with it, up to now.
func clip(j job.Job, now float64) job.Job {
	if j.Start < now {
		j.Start = now
	}
	if j.Arrival > j.Start {
		j.Arrival = j.Start
	}
	return j
}

// gridFrom returns the uniform slice grid from now that covers horizon,
// one slice at least.
func (c *Controller) gridFrom(now, horizon float64) (*timeslice.Grid, error) {
	n := timeslice.CoverUntil(now, c.cfg.SliceLen, horizon)
	if n < 1 {
		n = 1
	}
	return timeslice.Uniform(now, c.cfg.SliceLen, n)
}

// snapshotJobs builds the job list for this epoch: each live active job
// with its residual demand, its effective deadline, and a window clipped
// to start no earlier than now. It also returns the active jobs aligned
// with the job list.
func (c *Controller) snapshotJobs(now float64) ([]job.Job, []*activeJob) {
	jobs := make([]job.Job, 0, len(c.active))
	fresh := make([]*activeJob, 0, len(c.active))
	for _, aj := range c.active {
		if aj.retired {
			continue
		}
		j := aj.orig
		j.Size = aj.remaining
		j.End = aj.effectiveEnd
		jobs = append(jobs, clip(j, now))
		fresh = append(fresh, aj)
	}
	return jobs, fresh
}

// buildInstance snapshots the live jobs and builds the scheduling instance
// over a grid starting at now, on the residual topology. The snapshot is
// returned even when instance construction fails.
func (c *Controller) buildInstance(now float64) (*schedule.Instance, []*activeJob, error) {
	jobs, fresh := c.snapshotJobs(now)
	grid, err := c.gridFrom(now, c.reach(now, job.MaxEnd(jobs)))
	if err != nil {
		return nil, fresh, err
	}
	inst, err := c.newInstance(grid, jobs, false)
	if err != nil {
		return nil, fresh, fmt.Errorf("controller: epoch at t=%g: %w", now, err)
	}
	return inst, fresh, nil
}

// newInstance builds a scheduling instance with the controller's path
// configuration. Under ColumnGen it also runs the pricing loop, so the
// returned instance's path sets already cover every column the solves
// that follow can use and it carries the Z* pricing proved; the paths the
// master optima used are published to the PathCache and, with the seeds,
// start the next epoch's build. stage1Only skips stage-2 (and SUB-RET)
// pricing — enough for feasibility probes that only consult Z*; such a
// run adds to the cache entries and never evicts from them.
//
// Inside an epoch the build is the schedule.build span: the path-set
// lookups, cache hits unless a link event re-keyed a pair after Submit
// priced it, or the pricing loop with its schedule.colgen spans.
func (c *Controller) newInstance(grid *timeslice.Grid, jobs []job.Job, stage1Only bool) (inst *schedule.Instance, err error) {
	sp := c.epochTracer.Start("schedule.build")
	defer func() {
		if sp.ID() == 0 {
			return
		}
		attrs := []telemetry.Attr{telemetry.KV("jobs", len(jobs))}
		if inst != nil {
			n := 0
			for _, ps := range inst.JobPaths {
				n += len(ps)
			}
			attrs = append(attrs, telemetry.KV("paths", n))
		}
		if err != nil {
			attrs = append(attrs, telemetry.KV("error", err.Error()))
		}
		sp.End(attrs...)
	}()
	inst, err = schedule.NewInstanceOpts(c.topo, grid, jobs, c.instanceOptions())
	if err != nil || !c.cfg.ColumnGen {
		return inst, err
	}
	solver := c.solverOpts()
	if tr := sp.Tracer(); tr != nil {
		solver.Tracer = tr
	}
	cg := schedule.ColGenConfig{
		Solver: solver, Alpha: c.cfg.Alpha, Weight: c.cfg.Weight,
		SkipStage2: stage1Only,
	}
	if !stage1Only && c.extends {
		cg.RET = &schedule.RETConfig{BMax: c.cfg.BMax, Solver: solver}
	}
	if _, err := schedule.GeneratePaths(inst, cg); err != nil {
		return nil, fmt.Errorf("column generation: %w", err)
	}
	return inst, nil
}

// solveChain builds the instance at now and runs the degradation chain
// over it: the planner first, then plain LPD (truncated stage-1). Both
// solves are panic-guarded. It returns the plan with the snapshot it
// covers and its tier, or a nil plan and "" when the build or every tier
// fails.
func (c *Controller) solveChain(now float64) (*schedule.Assignment, []*activeJob, string) {
	inst, fresh, err := c.buildInstance(now)
	if err != nil {
		c.logDegrade(now, "instance build failed", err)
		return nil, fresh, ""
	}
	var plan *schedule.Assignment
	info := &solveInfo{}
	c.lastSolve = info
	err = c.guard(func() error {
		var e error
		plan, e = c.planner.plan(inst, fresh, now, info)
		return e
	})
	if err == nil && plan != nil {
		return plan, fresh, TierFull
	}
	c.logDegrade(now, "policy solve failed", err)

	plan = nil
	err = c.guard(func() error {
		s1, e := schedule.SolveStage1(inst, c.solverOpts())
		if e != nil {
			return e
		}
		plan = s1.Frac.Truncate()
		return nil
	})
	if err == nil && plan != nil {
		return plan, fresh, TierLPD
	}
	c.logDegrade(now, "stage-1 LPD failed", err)
	return nil, fresh, ""
}

// guard runs f, converting a panic into an error so one poisoned solve
// cannot take down the controller.
func (c *Controller) guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			telEpochPanics.Inc()
			c.epochPanicked = true
			err = fmt.Errorf("controller: recovered panic in epoch planning: %v", r)
		}
	}()
	return f()
}

// solverOpts returns the lp options for the current solve, scoped to the
// running epoch's trace when one is active so every lp.solve span (and
// everything below it) parents to the epoch span.
func (c *Controller) solverOpts() lp.Options {
	o := c.cfg.Solver
	if c.epochTracer != nil {
		o.Tracer = c.epochTracer
	}
	return o
}

func (c *Controller) logDegrade(now float64, msg string, err error) {
	c.logger.Warn("controller: "+msg, "t", now, "err", err)
}

// periodUsage measures how much of the committed period's network
// capacity the plan uses: scheduled wavelength·time units and the total
// available over all edges and slices inside [now, now+τ).
func (c *Controller) periodUsage(plan *schedule.Assignment, now float64) (scheduled, capacity float64) {
	if plan == nil {
		return 0, 0
	}
	grid := plan.Inst.Grid
	epochEnd := now + c.cfg.Tau
	load := plan.EdgeLoads()
	for j := 0; j < grid.Num(); j++ {
		if grid.Start(j)+grid.Len(j) <= now+1e-9 {
			continue // carried-forward grids can start before this period
		}
		if grid.Start(j) >= epochEnd-1e-9 {
			break
		}
		l := grid.Len(j)
		for e := 0; e < plan.Inst.G.NumEdges(); e++ {
			scheduled += load[e][j] * l
			capacity += float64(plan.Inst.Capacity(netgraph.EdgeID(e), j)) * l
		}
	}
	return scheduled, capacity
}
