// Package admission is the scheduler's production front door: the layer
// between the HTTP API and the controller that turns a firehose of
// individual submissions into the controller's batch-oriented world.
//
// It has three parts:
//
//   - Queue: a sharded, lock-free intake buffer. Submissions enqueue with
//     one atomic sequence fetch and one CAS push — no shared mutex — and a
//     single drain per epoch tick hands the whole backlog to the planner
//     as one batch, so a thousand clients cost one controller-mutex
//     acquisition and one WAL fsync instead of a thousand.
//   - Policy: per-tenant rate limits and capacity quotas with typed
//     rejections (ErrRateLimited, ErrQuotaExceeded → HTTP 429 with
//     Retry-After, ErrUnknownTenant → 403), extending the controller's
//     ErrTooLate pattern.
//   - Priority classes (critical/standard/scavenger): each class scales
//     the job's stage-2 objective weight, orders admission-control
//     preference under PolicyReject, and fixes the shed order when a
//     batch overflows a tenant's quota (scavengers go first).
//
// Rate-limit decisions happen before anything reaches the WAL, so their
// wall-clock nondeterminism can never perturb replay: the durable log
// only ever contains submissions that passed the gate.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/telemetry"
)

// Package-level instruments on the default telemetry registry.
var (
	telDepth = telemetry.Default().Gauge("admission_queue_depth",
		"Submissions buffered in the intake queue, waiting for a drain.")
	telBatches = telemetry.Default().Counter("admission_batches_total",
		"Intake drains handed to the planner.")
	telBatchJobs = telemetry.Default().Histogram("admission_batch_jobs",
		"Submissions coalesced into one intake drain.", nil)
	telAckSeconds = telemetry.Default().Histogram("admission_ack_seconds",
		"Enqueue-to-decision latency of one submission.", nil)
	telRejectRate = telemetry.Default().Counter("admission_rejected_rate_limited_total",
		"Submissions rejected by a tenant rate limit.")
	telRejectQuota = telemetry.Default().Counter("admission_rejected_quota_total",
		"Submissions rejected by a tenant capacity quota.")
	telRejectTenant = telemetry.Default().Counter("admission_rejected_unknown_tenant_total",
		"Submissions rejected because the tenant is not configured.")
	telRejectDup = telemetry.Default().Counter("admission_rejected_duplicate_total",
		"Submissions rejected inside the batch drain as duplicate job IDs.")
)

// Typed admission rejections, extending the controller's ErrTooLate
// pattern. Test with errors.Is.
var (
	// ErrQuotaExceeded: admitting the job would push its tenant past a
	// capacity quota (job count or outstanding demand). Maps to HTTP 429;
	// quota frees as the tenant's jobs finish.
	ErrQuotaExceeded = errors.New("tenant capacity quota exceeded")
	// ErrRateLimited: the tenant's submission rate (token bucket) is
	// exhausted. Maps to HTTP 429 with Retry-After.
	ErrRateLimited = errors.New("tenant rate limit exceeded")
	// ErrUnknownTenant: the server requires a configured tenant and this
	// submission named none (or an unconfigured one). Maps to HTTP 403.
	ErrUnknownTenant = errors.New("unknown tenant")
	// ErrDuplicateID: the job's ID was already seen — by an earlier
	// submission or by another job in the same intake batch. The check
	// runs inside the batch drain, under the same lock that applies the
	// batch, so concurrent submitters of one ID race for exactly one
	// acceptance.
	ErrDuplicateID = errors.New("duplicate job id")
)

// Class is a submission's priority class. Classes map to stage-2
// objective-weight multipliers and to the preference order under
// degradation: when capacity or quota runs short, scavenger work is shed
// first and critical work last.
type Class string

// Priority classes.
const (
	// ClassCritical: deadline-critical transfers; 8x objective weight,
	// admitted first.
	ClassCritical Class = "critical"
	// ClassStandard: the default; 1x weight.
	ClassStandard Class = "standard"
	// ClassScavenger: background fill; 1/8 weight, shed first under
	// quota pressure or overload.
	ClassScavenger Class = "scavenger"
)

// Rank orders classes for admission preference: lower is served first.
func (c Class) Rank() int {
	switch c {
	case ClassCritical:
		return 0
	case ClassScavenger:
		return 2
	default:
		return 1
	}
}

// ParseClass validates a wire-format class name; empty selects standard.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "":
		return ClassStandard, nil
	case ClassCritical, ClassStandard, ClassScavenger:
		return Class(s), nil
	}
	return "", fmt.Errorf("admission: unknown priority class %q (want critical, standard, or scavenger)", s)
}

// TenantPolicy bounds one tenant's use of the scheduler.
type TenantPolicy struct {
	// RatePerSec refills the tenant's submission token bucket; 0 disables
	// rate limiting for the tenant.
	RatePerSec float64
	// Burst is the bucket capacity; 0 with a positive rate defaults to
	// max(1, RatePerSec).
	Burst float64
	// MaxJobs caps the tenant's unfinished admitted jobs; 0 = unlimited.
	MaxJobs int
	// MaxDemand caps the tenant's outstanding admitted demand (in the
	// scheduler's wavelength·time units); 0 = unlimited.
	MaxDemand float64
}

func (p TenantPolicy) burst() float64 {
	if p.Burst > 0 {
		return p.Burst
	}
	if p.RatePerSec > 0 {
		if p.RatePerSec < 1 {
			return 1
		}
		return p.RatePerSec
	}
	return 0
}

// Config tunes the admission subsystem.
type Config struct {
	// Tenants maps tenant names to their policies. Tenants absent from
	// the map fall back to Default (unless RequireTenant is set).
	Tenants map[string]TenantPolicy
	// Default applies to unconfigured tenants, including the anonymous
	// empty tenant. The zero value imposes no limits.
	Default TenantPolicy
	// RequireTenant rejects submissions whose tenant is not a key of
	// Tenants (ErrUnknownTenant → 403). The anonymous tenant counts as
	// unconfigured.
	RequireTenant bool
	// ClassWeights overrides the per-class stage-2 weight multipliers;
	// nil selects critical=8, standard=1, scavenger=0.125.
	ClassWeights map[Class]float64
}

// DefaultClassWeights is the built-in class→weight-multiplier table.
var DefaultClassWeights = map[Class]float64{
	ClassCritical:  8,
	ClassStandard:  1,
	ClassScavenger: 0.125,
}

// jobMeta is the registry entry for one admitted, unfinished job.
type jobMeta struct {
	tenant string
	class  Class
	size   float64
}

// usage tracks one tenant's live consumption.
type usage struct {
	jobs   int
	demand float64
	// token bucket (rate limiting)
	tokens float64
	last   time.Time
}

// Policy applies tenant quotas, rate limits, and class weights. It has
// its own mutex (safe to call from HTTP handlers without the server's
// write lock and from solver worker goroutines via Weight).
type Policy struct {
	cfg Config

	mu    sync.Mutex
	use   map[string]*usage
	byJob map[job.ID]jobMeta
	mult  map[Class]float64
	nowFn func() time.Time // injectable for tests
}

// NewPolicy builds the policy state for cfg.
func NewPolicy(cfg Config) *Policy {
	mult := cfg.ClassWeights
	if mult == nil {
		mult = DefaultClassWeights
	}
	return &Policy{
		cfg:   cfg,
		use:   make(map[string]*usage),
		byJob: make(map[job.ID]jobMeta),
		mult:  mult,
		nowFn: time.Now,
	}
}

// policyFor resolves a tenant's policy.
func (p *Policy) policyFor(tenant string) (TenantPolicy, bool) {
	if tp, ok := p.cfg.Tenants[tenant]; ok {
		return tp, true
	}
	return p.cfg.Default, false
}

// CheckTenant rejects unconfigured tenants when RequireTenant is set.
func (p *Policy) CheckTenant(tenant string) error {
	if !p.cfg.RequireTenant {
		return nil
	}
	if _, ok := p.cfg.Tenants[tenant]; !ok {
		telRejectTenant.Inc()
		if tenant == "" {
			return fmt.Errorf("admission: no tenant named: %w", ErrUnknownTenant)
		}
		return fmt.Errorf("admission: tenant %q: %w", tenant, ErrUnknownTenant)
	}
	return nil
}

// AllowRate consumes one token from the tenant's bucket. On refusal it
// returns ErrRateLimited and the seconds until a token will be available.
// Rate decisions use the wall clock and run before the WAL, so they are
// deliberately outside the deterministic replay boundary.
func (p *Policy) AllowRate(tenant string) (retryAfter float64, err error) {
	tp, _ := p.policyFor(tenant)
	if tp.RatePerSec <= 0 {
		return 0, nil
	}
	burst := tp.burst()
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.usageFor(tenant)
	now := p.nowFn()
	if !u.last.IsZero() {
		u.tokens += now.Sub(u.last).Seconds() * tp.RatePerSec
	} else {
		u.tokens = burst
	}
	if u.tokens > burst {
		u.tokens = burst
	}
	u.last = now
	if u.tokens >= 1 {
		u.tokens--
		return 0, nil
	}
	telRejectRate.Inc()
	need := (1 - u.tokens) / tp.RatePerSec
	return need, fmt.Errorf("admission: tenant %q: %w", tenant, ErrRateLimited)
}

// AdmitCheck verifies the tenant's capacity quotas would survive admitting
// a job of the given size. It does not register the job; call Register
// once the submission is durably accepted.
func (p *Policy) AdmitCheck(tenant string, size float64) error {
	tp, _ := p.policyFor(tenant)
	if tp.MaxJobs <= 0 && tp.MaxDemand <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.usageFor(tenant)
	if tp.MaxJobs > 0 && u.jobs+1 > tp.MaxJobs {
		telRejectQuota.Inc()
		return fmt.Errorf("admission: tenant %q at %d/%d jobs: %w", tenant, u.jobs, tp.MaxJobs, ErrQuotaExceeded)
	}
	if tp.MaxDemand > 0 && u.demand+size > tp.MaxDemand+1e-9 {
		telRejectQuota.Inc()
		return fmt.Errorf("admission: tenant %q at demand %g/%g: %w", tenant, u.demand, tp.MaxDemand, ErrQuotaExceeded)
	}
	return nil
}

// Register records an accepted job against its tenant's quota and the
// class registry that feeds Weight/Rank. Replay calls it for every
// accepted WAL entry, rebuilding the exact pre-restart accounting.
func (p *Policy) Register(id job.ID, tenant string, class Class, size float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.byJob[id]; ok {
		return
	}
	p.byJob[id] = jobMeta{tenant: tenant, class: class, size: size}
	u := p.usageFor(tenant)
	u.jobs++
	u.demand += size
}

// Release frees the quota held by a finished (or rejected) job. Unknown
// IDs are a no-op, so callers can release every record they see.
func (p *Policy) Release(id job.ID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	meta, ok := p.byJob[id]
	if !ok {
		return
	}
	delete(p.byJob, id)
	if u := p.use[meta.tenant]; u != nil {
		u.jobs--
		u.demand -= meta.size
		if u.jobs < 0 {
			u.jobs = 0
		}
		if u.demand < 0 {
			u.demand = 0
		}
	}
}

// ResetUsage clears all quota accounting and the class registry — the
// server's Reset path, before replaying a replacement history.
func (p *Policy) ResetUsage() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.byJob = make(map[job.ID]jobMeta)
	for _, u := range p.use {
		u.jobs, u.demand = 0, 0
	}
}

// Class returns the registered class of a job (standard when unknown).
func (p *Policy) Class(id job.ID) Class {
	p.mu.Lock()
	defer p.mu.Unlock()
	if meta, ok := p.byJob[id]; ok {
		return meta.class
	}
	return ClassStandard
}

// Weight is a schedule.WeightFunc: the paper's size weighting scaled by
// the job's class multiplier. The registry is rebuilt identically on WAL
// replay, so weights — and therefore schedules — are deterministic.
func (p *Policy) Weight(j job.Job) float64 {
	p.mu.Lock()
	class := ClassStandard
	if meta, ok := p.byJob[j.ID]; ok {
		class = meta.class
	}
	p.mu.Unlock()
	m, ok := p.mult[class]
	if !ok {
		m = 1
	}
	return j.Size * m
}

// Rank is a controller priority hook: the admission-preference rank of
// the job's registered class (critical first).
func (p *Policy) Rank(j job.Job) int {
	return p.Class(j.ID).Rank()
}

// TenantUsage is one tenant's live consumption, for the status endpoint.
type TenantUsage struct {
	Tenant string  `json:"tenant"`
	Jobs   int     `json:"jobs"`
	Demand float64 `json:"demand"`
}

// Usage lists per-tenant consumption for every tenant with live jobs,
// in map order (callers sort).
func (p *Policy) Usage() []TenantUsage {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantUsage, 0, len(p.use))
	for name, u := range p.use {
		if u.jobs == 0 && u.demand == 0 {
			continue
		}
		out = append(out, TenantUsage{Tenant: name, Jobs: u.jobs, Demand: u.demand})
	}
	return out
}

func (p *Policy) usageFor(tenant string) *usage {
	u := p.use[tenant]
	if u == nil {
		u = &usage{}
		p.use[tenant] = u
	}
	return u
}

// CountDuplicate bumps the duplicate-rejection counter (the check itself
// lives in the server's batch drain, which owns the ID set).
func CountDuplicate() { telRejectDup.Inc() }
