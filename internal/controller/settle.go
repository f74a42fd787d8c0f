package controller

import (
	"math"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
)

// Record is the final accounting for one job.
type Record struct {
	Job         job.Job
	Delivered   float64 // total data actually transferred
	FinishTime  float64 // when the transfer completed (or the deadline passed)
	MetDeadline bool    // finished by the *requested* end time
	Completed   bool    // demand fully delivered (possibly late under RET)
	Rejected    bool    // never admitted (window already unusable)
	Disrupted   bool    // dropped mid-transfer by a link failure
}

// activeJob is an admitted transfer in progress.
type activeJob struct {
	orig      job.Job
	remaining float64
	delivered float64
	// effectiveEnd is the deadline currently in force (extended under RET).
	effectiveEnd float64
	// retired marks a job that already has a final record (completed,
	// expired, or dropped); retired jobs take no further part in
	// settlement or planning.
	retired bool
}

// commitment is the schedule in force for the current period. Transfers
// are settled lazily — at the next epoch, at link events, or when records
// are read — so a failure mid-period can credit exactly the bytes
// delivered before it and replan the remainder.
type commitment struct {
	plan    *schedule.Assignment
	fresh   []*activeJob // aligned with plan's job indices
	start   float64      // period start (kτ, or the replan instant)
	end     float64      // period end ((k+1)τ)
	settled float64      // transfers credited up to this instant
}

// flowIn is the data job k's plan moves in slice j over paths that cross
// no blocked link.
func (cm *commitment) flowIn(k, j int, blocked map[netgraph.EdgeID]bool) float64 {
	got := 0.0
	for p := range cm.plan.X[k] {
		if blocked != nil && pathBlocked(cm.plan.Inst.JobPaths[k][p], blocked) {
			continue
		}
		got += cm.plan.X[k][p][j] * cm.plan.Inst.Grid.Len(j)
	}
	return got
}

// project walks job k's committed flow forward over the slices ending in
// (settled, until], crediting each slice's flowIn against rem, the demand
// still open. Each credit is also added to *delivered when that is non-nil.
// It returns what is left — exactly 0 once the job is done — and the end of
// the slice that finished it.
func (cm *commitment) project(k int, rem, until float64, blocked map[netgraph.EdgeID]bool, delivered *float64) (left, finish float64) {
	grid := cm.plan.Inst.Grid
	for j := 0; j < grid.Num(); j++ {
		end := grid.Start(j) + grid.Len(j)
		if end <= cm.settled+1e-9 {
			continue
		}
		if end > until+1e-9 {
			break
		}
		got := cm.flowIn(k, j, blocked)
		if got <= 0 {
			continue
		}
		if got > rem {
			got = rem
		}
		rem -= got
		if delivered != nil {
			*delivered += got
		}
		if rem <= 1e-9 {
			return 0, end
		}
	}
	return rem, 0
}

// record appends one job record, keeps the outcome counters current and
// closes the job's audit trail with why, a human-readable verdict.
func (c *Controller) record(r Record, why string) {
	switch {
	case r.Rejected:
		telRejected.Inc()
	case r.Completed:
		telCompleted.Inc()
	case r.Disrupted:
		// counted per disruption outcome, not here
	default:
		telExpired.Inc()
	}
	c.records = append(c.records, r)
	c.appendAudit(r.Job.ID, AuditEvent{
		Epoch:  c.Epochs,
		Time:   r.FinishTime,
		Kind:   string(RecordState(r)),
		Detail: why,
		Trace:  int64(c.Epochs),
	})
}

// expire retires aj with unmet demand at its effective deadline.
func (c *Controller) expire(aj *activeJob, why string) {
	aj.retired = true
	c.record(Record{Job: aj.orig, Delivered: aj.delivered, FinishTime: aj.effectiveEnd}, why)
}

// settle credits transfers under the committed plan for every slice ending
// in (settled, until], excluding flow on paths crossing a blocked link
// (the down set plus extra), and finalizes the period when it is fully
// settled.
func (c *Controller) settle(until float64, extra map[netgraph.EdgeID]bool) {
	cm := c.commit
	if cm == nil {
		return
	}
	until = math.Min(until, cm.end)
	if until > cm.settled+1e-9 {
		blocked := c.blockedEdges(extra)
		for k, aj := range cm.fresh {
			if aj.retired {
				continue
			}
			var finish float64
			aj.remaining, finish = cm.project(k, aj.remaining, until, blocked, &aj.delivered)
			if aj.remaining == 0 {
				aj.retired = true
				c.record(Record{
					Job:         aj.orig,
					Delivered:   aj.delivered,
					FinishTime:  finish,
					MetDeadline: finish <= aj.orig.End+1e-9,
					Completed:   true,
				}, "")
			}
		}
	}
	if until > cm.settled {
		cm.settled = until
	}
	if cm.settled >= cm.end-1e-9 {
		c.finalize()
	}
}

// settleAll settles the outstanding commitment through the end of its
// period.
func (c *Controller) settleAll() {
	if c.commit != nil {
		c.settle(c.commit.end, nil)
	}
}

// finalize closes the fully-settled period: jobs whose effective deadline
// falls inside it are retired as expired, the schedule is kept as the
// carry-forward fallback, and the commitment is cleared.
func (c *Controller) finalize() {
	cm := c.commit
	var still []*activeJob
	for _, aj := range c.active {
		switch {
		case aj.retired:
			// already recorded
		case aj.effectiveEnd <= cm.end+1e-9:
			c.expire(aj, "")
		default:
			still = append(still, aj)
		}
	}
	c.active = still
	c.prevPlan, c.prevFresh = cm.plan, cm.fresh
	c.commit = nil
}

// ActiveCount returns the number of admitted jobs that will still be
// unfinished once the committed period completes, without mutating any
// state.
func (c *Controller) ActiveCount() int {
	cm := c.commit
	var idx map[*activeJob]int
	var blocked map[netgraph.EdgeID]bool
	if cm != nil {
		idx = make(map[*activeJob]int, len(cm.fresh))
		for k, aj := range cm.fresh {
			idx[aj] = k
		}
		blocked = c.blockedEdges(nil)
	}
	n := 0
	for _, aj := range c.active {
		switch {
		case aj.retired:
		case cm == nil:
			n++
		default:
			rem := aj.remaining
			if k, ok := idx[aj]; ok && rem > 1e-9 {
				rem, _ = cm.project(k, rem, cm.end, blocked, nil)
			}
			if rem > 1e-9 && aj.effectiveEnd > cm.end+1e-9 {
				n++
			}
		}
	}
	return n
}

// projectedFinish simulates the in-force plan over its whole horizon (not
// just the committed period) and returns when the job's residual demand
// completes; ok is false when the plan never completes it.
func (c *Controller) projectedFinish(aj *activeJob) (float64, bool) {
	if cm := c.commit; cm != nil {
		for k, f := range cm.fresh {
			if f == aj {
				left, finish := cm.project(k, aj.remaining, math.Inf(1), c.blockedEdges(nil), nil)
				return finish, left == 0
			}
		}
	}
	return 0, false
}

// RecordCount reports how many final records exist as of the last
// settlement, without settling or copying. With RecordsFrom it gives
// upper layers (the admission quota ledger) a cursor over the record
// stream: count once, read only the new suffix.
func (c *Controller) RecordCount() int { return len(c.records) }

// RecordsFrom returns a copy of the final records from index i on, as of
// the last settlement, without settling. Like CurrentRecords it never
// mutates controller state.
func (c *Controller) RecordsFrom(i int) []Record {
	if i < 0 {
		i = 0
	}
	if i >= len(c.records) {
		return nil
	}
	out := make([]Record, len(c.records)-i)
	copy(out, c.records[i:])
	return out
}

// Records returns the accounting for all finished (or rejected) jobs. Any
// outstanding commitment is settled first, so the accounting reflects
// everything the committed schedule will deliver.
func (c *Controller) Records() []Record {
	c.settleAll()
	return c.CurrentRecords()
}

// CurrentRecords returns the accounting as of the last settlement,
// without settling the outstanding commitment. Unlike Records it never
// mutates controller state, so periodic status polls (the HTTP server's
// GET handlers) cannot perturb mid-period failure handling or replay
// determinism. Jobs that will complete later in the committed period do
// not appear until settlement reaches them.
func (c *Controller) CurrentRecords() []Record {
	out := make([]Record, len(c.records))
	copy(out, c.records)
	return out
}
