package controller

import (
	"errors"
	"fmt"
	"sort"

	"wavesched/internal/job"
	"wavesched/internal/schedule"
)

// ErrTooLate reports a submission whose requested end time has already
// passed the controller's clock: no epoch can ever schedule it, under any
// policy (RET extensions are measured from the planning instant, so a
// dead window stays dead). Test with errors.Is.
var ErrTooLate = errors.New("deadline already passed")

// Submit buffers a request for the next scheduling instant. Requests whose
// window is already unusable are rejected immediately: a job whose end
// time precedes the controller clock gets a rejected record and
// ErrTooLate instead of being silently buffered for a planning run that
// could never serve it. An accepted request's path set is looked up under
// the current topology here, so the next epoch's admission and instance
// build find it cached unless a link event changes the topology first.
func (c *Controller) Submit(j job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.End <= c.now+1e-9 {
		c.record(Record{Job: j, Rejected: true, FinishTime: c.now},
			fmt.Sprintf("deadline %g already passed at submission (t=%g)", j.End, c.now))
		return fmt.Errorf("controller: job %d: %w", j.ID, ErrTooLate)
	}
	// The request will be considered at the next epoch; stamp its trace
	// accordingly so GET /v1/debug/trace groups it with that epoch.
	c.appendAudit(j.ID, AuditEvent{
		Epoch:  c.Epochs,
		Time:   c.now,
		Kind:   AuditSubmitted,
		Detail: fmt.Sprintf("window [%g, %g] size %g %d->%d", j.Start, j.End, j.Size, j.Src, j.Dst),
		Trace:  int64(c.Epochs) + 1,
	})
	c.pathSet(j)
	c.pending = append(c.pending, j)
	return nil
}

// PendingCount returns the number of buffered, not-yet-scheduled requests.
func (c *Controller) PendingCount() int { return len(c.pending) }

// admit empties the pending buffer at now. Under PolicyReject the requests
// past the longest prefix that keeps Z* ≥ 1 with the admitted jobs are
// rejected first. A remaining request enters the active set when its
// window, as far as the planner may stretch it, holds one slice from now
// on and it has a route over the surviving topology.
func (c *Controller) admit(now float64, stat *EpochStat) error {
	reject := func(j job.Job, why string) {
		c.record(Record{Job: j, Rejected: true, FinishTime: now}, why)
		stat.Rejected++
	}
	if c.admitControl && len(c.pending) > 0 {
		admitted, err := c.admitPrefix(now)
		if err != nil {
			return err
		}
		for _, j := range c.pending[admitted:] {
			reject(j, "admission control: completing it on time with the admitted set is infeasible (Z* < 1)")
		}
		c.pending = c.pending[:admitted]
	}
	for _, j := range c.pending {
		if !c.fitsSlice(j.Start, c.reach(now, j.End), now) {
			reject(j, fmt.Sprintf("usable window shorter than one slice (%g) at t=%g", c.cfg.SliceLen, now))
			continue
		}
		if !c.hasRoute(j) {
			reject(j, "no route over the surviving topology")
			continue
		}
		stat.Admitted++
		aj := &activeJob{orig: j, remaining: j.Size, effectiveEnd: j.End}
		c.note(aj, now, AuditEvent{Kind: AuditAdmitted, Detail: fmt.Sprintf("entered the active set at epoch t=%g", now)})
		c.active = append(c.active, aj)
	}
	c.pending = c.pending[:0]
	return nil
}

// admitPrefix finds the longest arrival-order prefix of the pending
// requests (priority first, under Config.PriorityRank) that, together with
// the already-admitted jobs, the network can complete on time (stage-1
// Z* ≥ 1): the footnote-1 search. Returns the prefix length.
func (c *Controller) admitPrefix(now float64) (int, error) {
	rank := c.cfg.PriorityRank
	sort.SliceStable(c.pending, func(a, b int) bool {
		if rank != nil {
			if ra, rb := rank(c.pending[a]), rank(c.pending[b]); ra != rb {
				return ra < rb
			}
		}
		return c.pending[a].Arrival < c.pending[b].Arrival
	})
	base, _ := c.snapshotJobs(now)
	return schedule.LongestFeasiblePrefix(len(c.pending), func(n int) (bool, error) {
		jobs := append([]job.Job(nil), base...)
		for _, j := range c.pending[:n] {
			if !c.fitsSlice(j.Start, j.End, now) || !c.hasRoute(j) {
				continue // rejected later regardless; ignore for the check
			}
			jobs = append(jobs, clip(j, now))
		}
		if len(jobs) == 0 {
			return true, nil
		}
		grid, err := c.gridFrom(now, job.MaxEnd(jobs))
		if err != nil {
			return false, err
		}
		inst, err := c.newInstance(grid, jobs, true)
		if err != nil {
			return false, err
		}
		s1, err := schedule.Stage1ZStar(inst, c.solverOpts())
		if err != nil {
			return false, err
		}
		return s1.ZStar >= 1-1e-9, nil
	})
}
