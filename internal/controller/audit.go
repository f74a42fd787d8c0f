package controller

import (
	"sort"

	"wavesched/internal/job"
	"wavesched/internal/schedule"
)

// Audit event kinds. An event's Kind names what the controller decided
// about a job; the sequence of events for one job is its explanation.
const (
	// AuditSubmitted: the request entered the pending buffer.
	AuditSubmitted = "submitted"
	// AuditAdmitted: the request passed admission at an epoch.
	AuditAdmitted = "admitted"
	// AuditRejected: the request was refused (Detail carries the verdict:
	// deadline passed, admission control, unusable window, no route).
	AuditRejected = "rejected"
	// AuditPlanned: the epoch's solve produced a schedule covering the
	// job; Component/BHat/B explain which block fixed it and at what
	// extension bound.
	AuditPlanned = "planned"
	// AuditDegraded: the epoch fell below the full policy pipeline while
	// the job was active (Detail carries the tier).
	AuditDegraded = "degraded"
	// AuditExtended: RET renegotiated the job's effective deadline.
	AuditExtended = "extended"
	// AuditDisrupted: a link failure disturbed the job's committed
	// schedule (Detail carries the reclassification outcome).
	AuditDisrupted = "disrupted"
	// AuditCompleted: the full demand was delivered.
	AuditCompleted = "completed"
	// AuditExpired: the job retired with unmet demand.
	AuditExpired = "expired"
	// AuditDropped: a link failure retired the job mid-transfer.
	AuditDropped = "dropped"
)

// AuditEvent is one step in a job's decision history. Events are
// regenerated deterministically on WAL replay (the trace ID is the epoch
// index, not a random value), so a restarted server explains a job
// identically to the one that scheduled it.
type AuditEvent struct {
	Seq       int     // global controller-wide order
	Epoch     int     // RunEpoch count when the event fired (0 = pre-first-epoch)
	Time      float64 // controller clock
	Kind      string
	Detail    string  // human-readable verdict or transition
	Component string  // decomposition fingerprint (planned events)
	BHat      float64 // the probe bound that fixed the job's component
	B         float64 // final extension factor after δ-rounds
	Trace     int64   // trace ID of the epoch that produced the event
}

// Explanation is a job's full decision history.
type Explanation struct {
	JobID  job.ID
	Events []AuditEvent
}

// appendAudit records one decision-history event for a job.
func (c *Controller) appendAudit(id job.ID, ev AuditEvent) {
	if c.audit == nil {
		c.audit = make(map[job.ID][]AuditEvent)
	}
	c.auditSeq++
	ev.Seq = c.auditSeq
	c.audit[id] = append(c.audit[id], ev)
}

// Explain returns the decision history of a job, in event order. ok is
// false when the controller has never seen the job.
func (c *Controller) Explain(id job.ID) (Explanation, bool) {
	evs, ok := c.audit[id]
	if !ok {
		return Explanation{JobID: id}, false
	}
	out := make([]AuditEvent, len(evs))
	copy(out, evs)
	return Explanation{JobID: id, Events: out}, true
}

// AuditByTrace returns every audit event stamped with the given trace ID
// (= epoch index), across all jobs, in global sequence order.
func (c *Controller) AuditByTrace(trace int64) []AuditEvent {
	var out []AuditEvent
	for _, evs := range c.audit {
		for _, ev := range evs {
			if ev.Trace == trace {
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// EpochFrame is the flight-recorder frame for one epoch: the full solve
// detail the metrics layer aggregates away. JSON tags are the dump
// format.
type EpochFrame struct {
	Epoch         int                  `json:"epoch"`
	Time          float64              `json:"t"`
	Trace         int64                `json:"trace"`
	Tier          string               `json:"tier,omitempty"`
	ActiveJobs    int                  `json:"active_jobs"`
	Admitted      int                  `json:"admitted"`
	Rejected      int                  `json:"rejected"`
	Utilization   float64              `json:"utilization"`
	DurUS         float64              `json:"dur_us"`
	Components    int                  `json:"components,omitempty"`
	BHat          float64              `json:"bhat,omitempty"`
	B             float64              `json:"b,omitempty"`
	Probes        []schedule.ProbeStep `json:"probes,omitempty"`
	WarmHits      int64                `json:"warm_hits"`
	WarmFallbacks int64                `json:"warm_fallbacks"`
	LPTimeouts    int64                `json:"lp_timeouts"`
	Panic         bool                 `json:"panic,omitempty"`
	Anomalies     []string             `json:"anomalies,omitempty"`
}
