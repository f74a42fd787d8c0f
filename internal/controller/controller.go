// Package controller implements the paper's network-controller framework
// (Section II-A): job requests are collected continuously, and every τ
// time units the controller runs admission control and scheduling over all
// known jobs — new arrivals and admitted-but-unfinished transfers alike —
// then commits integer wavelength assignments for the next period.
//
// Two policies mirror the paper's two algorithms for the overloaded case:
// PolicyMaxThroughput guarantees end times and reduces effective job sizes
// (action ii), and PolicyRET extends end times so every job completes in
// full (action iii).
//
// The controller also models link failures: LinkDown/LinkUp events credit
// the bytes already delivered under the committed schedule, reroute or
// drop the transfers the failure disrupts, and replan the rest of the
// period over the residual topology. When the regular policy pipeline
// cannot produce a plan (solver failure, timeout, or a panic in a plugged
// component), the epoch degrades through a fixed chain — LPDAR → LPD →
// carry forward the previous schedule — instead of halting the network.
package controller

import (
	"fmt"
	"log/slog"
	"math"
	"sort"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
)

// Package-level instruments on the default telemetry registry.
var (
	telEpochSeconds = telemetry.Default().Histogram("controller_epoch_seconds",
		"Wall time of one controller scheduling epoch in seconds.", nil)
	telEpochs = telemetry.Default().Counter("controller_epochs_total",
		"Scheduling epochs executed.")
	telAdmitted = telemetry.Default().Counter("controller_jobs_admitted_total",
		"Requests admitted into the active set.")
	telRejected = telemetry.Default().Counter("controller_jobs_rejected_total",
		"Requests rejected (admission control or unusable window).")
	telCompleted = telemetry.Default().Counter("controller_jobs_completed_total",
		"Jobs whose full demand was delivered.")
	telExpired = telemetry.Default().Counter("controller_jobs_expired_total",
		"Admitted jobs retired with unmet demand after their deadline passed.")
	telActiveJobs = telemetry.Default().Gauge("controller_active_jobs",
		"Admitted unfinished jobs after the most recent epoch.")
	telUtilization = telemetry.Default().Gauge("controller_epoch_utilization",
		"Scheduled/capacity ratio of the most recent committed period.")

	telLinkDown = telemetry.Default().Counter("controller_link_down_events_total",
		"Link-failure events applied to the topology.")
	telLinkUp = telemetry.Default().Counter("controller_link_up_events_total",
		"Link-repair events applied to the topology.")
	telReschedOnTime = telemetry.Default().Counter("controller_jobs_rescheduled_ontime_total",
		"Disrupted jobs rescheduled with their original deadline still met.")
	telReschedLate = telemetry.Default().Counter("controller_jobs_rescheduled_late_total",
		"Disrupted jobs rescheduled past their original deadline.")
	telDroppedJobs = telemetry.Default().Counter("controller_jobs_disrupted_dropped_total",
		"Disrupted jobs dropped because no residual route or window remained.")
	telDegraded = telemetry.Default().Counter("controller_epochs_degraded_total",
		"Epochs that fell back below the full policy pipeline.")
	telEpochPanics = telemetry.Default().Counter("controller_epoch_panics_total",
		"Panics recovered inside epoch planning.")
)

// Policy selects the overload behaviour.
type Policy int

// Overload policies.
const (
	// PolicyMaxThroughput runs the two-stage algorithm with LPDAR; when
	// overloaded, jobs deliver Z_i·D_i ≤ D_i by their end times.
	PolicyMaxThroughput Policy = iota
	// PolicyRET runs Algorithm 2; all jobs complete in full, possibly
	// after their requested end times.
	PolicyRET
	// PolicyReject is the paper's action (i): new requests are admitted
	// in arrival order only while the network can still complete every
	// admitted job by its end time (stage-1 Z* ≥ 1, found by binary
	// search per footnote 1); the rest are rejected. Admitted jobs then
	// always finish on time.
	PolicyReject
)

// Degradation tiers recorded per epoch (EpochStat.Tier).
const (
	// TierFull: the configured policy pipeline produced the plan.
	TierFull = "full"
	// TierLPD: the policy failed; the plan is the truncated stage-1 LP.
	TierLPD = "lpd"
	// TierCarry: all solves failed; the previous period's schedule was
	// carried forward, restricted at settlement to links still alive.
	TierCarry = "carry"
	// TierIdle: no plan and nothing to carry; the period transfers nothing.
	TierIdle = "idle"
)

// Config tunes the controller.
type Config struct {
	Tau      float64 // scheduling period; must be a multiple of SliceLen
	SliceLen float64 // slice duration
	K        int     // allowed paths per job
	Alpha    float64 // stage-2 fairness slack (PolicyMaxThroughput); zero selects the schedule default
	Policy   Policy
	BMax     float64 // RET search ceiling (PolicyRET); default 10
	Solver   lp.Options
	// Weight overrides the stage-2 objective weight function
	// (PolicyMaxThroughput/PolicyReject); nil keeps the paper's D_i.
	Weight schedule.WeightFunc
	// Tracer, when non-nil, receives a span per epoch and is threaded
	// down into the scheduling and LP layers via Solver.
	Tracer *telemetry.Tracer
	// Logger receives degraded-epoch and recovery diagnostics; nil
	// selects slog.Default().
	Logger *slog.Logger
	// WarmStart is ignored: PolicyMaxThroughput and PolicyReject start
	// every stage-2 solve from the previous one's bases
	// (schedule.Stage2Carry), and PolicyRET's search chains and prunes its
	// probes inside each epoch, whatever the config.
	//
	// Deprecated: ignored. The daemon-epoch benchmark (bench/) is its only
	// reader.
	WarmStart bool
	// Incremental is ignored: every epoch solves its instance in full, as
	// the paper's controller does at each scheduling instant.
	//
	// Deprecated: ignored. The daemon-epoch benchmark (bench/) is its only
	// reader.
	Incremental bool
	// ColumnGen prices path columns on demand instead of enumerating K
	// paths per job upfront: each epoch's instance starts from two
	// edge-disjoint seed paths per (src, dst) pair — plus the paths the
	// previous epoch's master optima used, carried through the
	// controller's PathCache — and schedule.GeneratePaths grows the sets
	// by LP pricing before the policy solve. K is ignored for path
	// construction while set.
	ColumnGen bool
	// PriorityRank, when non-nil, orders pending requests ahead of
	// admission: lower ranks are considered first (ties keep arrival
	// order), so under PolicyReject the feasible admission prefix prefers
	// critical work and sheds scavenger work first. Nil keeps pure
	// arrival order.
	PriorityRank func(job.Job) int
	// FlightRecorder, when non-nil, receives one EpochFrame per epoch
	// (probe trajectories, per-component b̂, warm-start and timeout
	// counter deltas, degradation tier) and is auto-dumped to disk when
	// the epoch shows an anomaly: an lp time limit, a recovered panic, a
	// degraded tier, or a cold-fallback spike.
	FlightRecorder *telemetry.FlightRecorder
}

func (c Config) validate() error {
	if !(c.SliceLen > 0) || math.IsInf(c.SliceLen, 0) {
		return fmt.Errorf("controller: SliceLen must be positive and finite, got %g", c.SliceLen)
	}
	if !(c.Tau > 0) || math.IsInf(c.Tau, 0) {
		return fmt.Errorf("controller: Tau must be positive and finite, got %g", c.Tau)
	}
	ratio := c.Tau / c.SliceLen
	if math.Abs(ratio-math.Round(ratio)) > 1e-9 || ratio < 1 {
		return fmt.Errorf("controller: Tau (%g) must be a positive multiple of SliceLen (%g)", c.Tau, c.SliceLen)
	}
	if c.Policy < PolicyMaxThroughput || c.Policy > PolicyReject {
		return fmt.Errorf("controller: unknown policy %d", c.Policy)
	}
	return nil
}

// Controller is the periodic network controller. It is not safe for
// concurrent use.
type Controller struct {
	g      *netgraph.Graph
	cfg    Config
	logger *slog.Logger

	now     float64
	pending []job.Job
	active  []*activeJob
	records []Record
	epochs  []EpochStat

	commit    *commitment
	prevPlan  *schedule.Assignment
	prevFresh []*activeJob

	// down is the set of currently-failed links. topo is the topology
	// planning uses — g, or the residual topology with every failed link at
	// zero wavelengths — and dead its zero-wavelength edges; both are
	// derived once per link event (setTopology).
	down map[netgraph.EdgeID]bool
	topo *netgraph.Graph
	dead schedule.DeadLinks

	// lastEvent is the latest instant of an applied event, a link event
	// or a scheduling instant; a link event dated before it is refused.
	lastEvent float64

	// planner is the overload policy, chosen once in New from
	// Config.Policy. extends says it may move deadlines past their
	// requested end (RET), admitControl that admission trims the pending
	// requests to a feasible prefix first (PolicyReject).
	planner      planner
	extends      bool
	admitControl bool
	// pathCache memoizes per-(src, dst) path sets across epoch instance
	// builds, keyed by the failed-link set (see schedule.PathCache). Submit
	// fills it, so a build only computes the sets of pairs a link event
	// re-keyed since.
	pathCache *schedule.PathCache

	disruptions []Disruption

	// audit holds each job's decision history; auditSeq orders events
	// globally across jobs.
	audit    map[job.ID][]AuditEvent
	auditSeq int

	// epochTracer is the per-epoch child scope every solve of the current
	// epoch parents to (nil outside RunEpoch or when tracing is off).
	epochTracer *telemetry.Tracer
	// lastSolve describes the policy solve of the current epoch, for the
	// flight-recorder frame.
	lastSolve *solveInfo
	// epochPanicked marks that guard recovered a panic this epoch.
	epochPanicked bool

	// Epochs counts RunEpoch calls.
	Epochs int
}

// EpochStat summarizes one scheduling instant and the period it committed.
type EpochStat struct {
	Time        float64 // the instant kτ
	ActiveJobs  int     // jobs optimized at this instant
	Admitted    int     // new requests taken from the pending buffer
	Rejected    int     // new requests rejected immediately
	Scheduled   float64 // wavelength·time units committed in [kτ, (k+1)τ)
	Capacity    float64 // total wavelength·time units available in the period
	Utilization float64 // Scheduled / Capacity (0 when idle)
	Degraded    bool    // the full policy pipeline did not produce the plan
	Tier        string  // TierFull, TierLPD, TierCarry, or TierIdle
}

// EpochStats returns the per-epoch utilization history.
func (c *Controller) EpochStats() []EpochStat {
	out := make([]EpochStat, len(c.epochs))
	copy(out, c.epochs)
	return out
}

// New returns a controller starting at time 0.
func New(g *netgraph.Graph, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.BMax == 0 {
		cfg.BMax = 10
	}
	if cfg.Tracer != nil && cfg.Solver.Tracer == nil {
		cfg.Solver.Tracer = cfg.Tracer
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ctrl := &Controller{g: g, cfg: cfg, logger: logger, lastEvent: math.Inf(-1), pathCache: schedule.NewPathCache()}
	switch cfg.Policy {
	case PolicyRET:
		ctrl.planner, ctrl.extends = &retPlanner{c: ctrl}, true
	case PolicyReject:
		ctrl.planner, ctrl.admitControl = &maxThroughputPlanner{c: ctrl}, true
	default:
		ctrl.planner = &maxThroughputPlanner{c: ctrl}
	}
	ctrl.setTopology()
	return ctrl, nil
}

// Now returns the controller's clock.
func (c *Controller) Now() float64 { return c.now }

// Tracer returns the configured trace sink (nil when tracing is off),
// so drivers above the controller — the sim engine, the serve loop —
// can emit their own spans into the same stream.
func (c *Controller) Tracer() *telemetry.Tracer { return c.cfg.Tracer }

// JobState labels one job's position in its lifecycle.
type JobState string

// Job lifecycle states, as reported by JobStatuses.
const (
	// JobPending: submitted, waiting for the next scheduling instant.
	JobPending JobState = "pending"
	// JobActive: admitted and unfinished as of the last settlement.
	JobActive JobState = "active"
	// JobCompleted: full demand delivered.
	JobCompleted JobState = "completed"
	// JobExpired: retired with unmet demand after its window died.
	JobExpired JobState = "expired"
	// JobRejected: never admitted.
	JobRejected JobState = "rejected"
	// JobDropped: dropped mid-transfer by a link failure.
	JobDropped JobState = "dropped"
)

// RecordState classifies a final record into its lifecycle state.
func RecordState(r Record) JobState {
	switch {
	case r.Rejected:
		return JobRejected
	case r.Completed:
		return JobCompleted
	case r.Disrupted:
		return JobDropped
	default:
		return JobExpired
	}
}

// JobStatus is one job's lifecycle view: final records carry their
// outcome, in-flight jobs their progress as of the last settlement.
type JobStatus struct {
	Job          job.Job
	State        JobState
	Delivered    float64
	Remaining    float64 // demand left (0 for final states)
	EffectiveEnd float64 // deadline in force (extended under RET)
	FinishTime   float64 // final states only
	MetDeadline  bool    // final states only
}

// JobStatuses returns a status per known job — finished first (record
// order), then active, then pending — without settling the outstanding
// commitment (see CurrentRecords).
func (c *Controller) JobStatuses() []JobStatus {
	out := make([]JobStatus, 0, len(c.records)+len(c.active)+len(c.pending))
	for _, r := range c.records {
		out = append(out, JobStatus{
			Job: r.Job, State: RecordState(r),
			Delivered: r.Delivered, EffectiveEnd: r.Job.End,
			FinishTime: r.FinishTime, MetDeadline: r.MetDeadline,
		})
	}
	for _, aj := range c.active {
		if aj.retired {
			continue
		}
		out = append(out, JobStatus{
			Job: aj.orig, State: JobActive,
			Delivered: aj.delivered, Remaining: aj.remaining,
			EffectiveEnd: aj.effectiveEnd,
		})
	}
	for _, j := range c.pending {
		out = append(out, JobStatus{
			Job: j, State: JobPending, Remaining: j.Size, EffectiveEnd: j.End,
		})
	}
	return out
}

// CommittedSchedule returns the integer assignment currently in force and
// its period bounds, or ok=false when no commitment is outstanding (idle,
// or between settlement and the next epoch). The assignment is shared,
// not copied: callers must treat it as read-only.
func (c *Controller) CommittedSchedule() (plan *schedule.Assignment, start, end float64, ok bool) {
	if c.commit == nil {
		return nil, 0, 0, false
	}
	return c.commit.plan, c.commit.start, c.commit.end, true
}

// Idle reports whether no work remains.
func (c *Controller) Idle() bool {
	return len(c.pending) == 0 && c.ActiveCount() == 0
}

// Summary aggregates the records.
type Summary struct {
	Total       int
	Completed   int
	MetDeadline int
	Rejected    int
	Disrupted   int // dropped mid-transfer by link failures
	Delivered   float64
	Requested   float64
	AvgFinish   float64 // over completed jobs
}

// Summarize computes aggregate statistics over the records.
func Summarize(records []Record) Summary {
	s := Summary{Total: len(records)}
	finishSum := 0.0
	for _, r := range records {
		s.Delivered += r.Delivered
		s.Requested += r.Job.Size
		if r.Rejected {
			s.Rejected++
			continue
		}
		if r.Disrupted {
			s.Disrupted++
		}
		if r.Completed {
			s.Completed++
			finishSum += r.FinishTime
		}
		if r.MetDeadline {
			s.MetDeadline++
		}
	}
	if s.Completed > 0 {
		s.AvgFinish = finishSum / float64(s.Completed)
	}
	return s
}

// SortRecordsByFinish orders records by finish time (stable), a
// convenience for reporting.
func SortRecordsByFinish(records []Record) {
	sort.SliceStable(records, func(a, b int) bool {
		return records[a].FinishTime < records[b].FinishTime
	})
}
