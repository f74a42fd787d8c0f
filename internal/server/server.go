// Package server turns the periodic controller into a long-running
// network service: an HTTP JSON API for job admission, status, schedule
// inspection, and fault injection, driven by a wall-clock epoch loop and
// made durable by the store package's WAL/snapshot log.
//
// Concurrency follows a single-writer discipline: one mutex serializes
// every state-changing path (HTTP submissions, link events, epoch ticks,
// shutdown settlement) against the controller, whose own methods are not
// safe for concurrent use. Read endpoints take the same mutex but only
// call the controller's non-mutating views (CurrentRecords, JobStatuses,
// CommittedSchedule), so polling can never perturb settlement order —
// the property that keeps WAL replay byte-identical.
//
// Durability is event-sourced: every accepted admission, link event, and
// epoch boundary is fsynced to the WAL before it is applied, and the
// controller is deterministic, so a restarted daemon replays
// snapshot+WAL through a fresh controller and arrives at byte-identical
// state (see internal/store).
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"wavesched/internal/admission"
	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/store"
	"wavesched/internal/telemetry"
)

// Package-level instruments on the default telemetry registry.
var (
	telRequests = telemetry.Default().Counter("server_http_requests_total",
		"HTTP API requests served.")
	telRequestSeconds = telemetry.Default().Histogram("server_http_request_seconds",
		"Wall time of one HTTP API request.", nil)
	telSubmitted = telemetry.Default().Counter("server_jobs_submitted_total",
		"Jobs accepted over the HTTP API.")
	telSubmitConflicts = telemetry.Default().Counter("server_submit_conflicts_total",
		"Submissions refused with HTTP 409 (duplicate ID or dead window).")
	telTicks = telemetry.Default().Counter("server_epoch_ticks_total",
		"Epoch ticks executed by the wall-clock loop or Tick.")
	telIdleSkips = telemetry.Default().Counter("server_idle_ticks_skipped_total",
		"Ticker firings skipped because the controller was idle.")
	telRedirects = telemetry.Default().Counter("server_write_redirects_total",
		"Write requests 307-redirected from a follower to the leader.")
)

// WAL abstracts the durable event log the server appends to. The
// single-node daemon uses *store.Log directly; a cluster member plugs
// in a replicated log whose Append returns only once the configured
// quorum has fsynced the entry (replicate-before-ack).
type WAL interface {
	Append(store.Entry) (store.Entry, error)
	Seq() uint64
	Close() error
}

// ErrNoQuorum mirrors the cluster package's quorum failure without
// importing it (the dependency points the other way). A WAL Append may
// wrap this error to say: the entry IS durable locally and MUST still
// be applied — determinism requires state to follow the local log — but
// the client acknowledgement should signal reduced durability.
var ErrNoQuorum = errors.New("server: replication quorum not reached")

// ClusterView is what the serving layer needs to know about cluster
// membership: enough to gate the epoch loop on leadership and to
// redirect writes at followers. A nil view means single-node mode.
type ClusterView interface {
	NodeID() string
	IsLeader() bool
	// LeaderURL returns the current leader's advertised base URL, or ""
	// when no leader is known.
	LeaderURL() string
}

// Config tunes the serving layer. Controller carries the scheduling
// configuration verbatim.
type Config struct {
	Controller controller.Config

	// Admission is the admission policy. Every submission flows through
	// a sharded lock-free intake queue and is drained in batches (one WAL
	// fsync per drain), gated by per-tenant rate limits and capacity
	// quotas, and carries a priority class that scales its stage-2 weight
	// and orders admission preference. Nil means the zero admission.Config:
	// no tenant limits and the default class weights, so a job that names
	// no class is standard and weighs its size, as in the paper.
	Admission *admission.Config

	// Period is the wall-clock duration of one scheduling period τ. The
	// Run loop executes one epoch per period. Zero disables the loop;
	// epochs then advance only through explicit Tick calls (tests, or an
	// external clock source).
	Period time.Duration

	// WALDir enables durability: every admission, link event, and epoch
	// boundary is logged there and replayed on restart. Empty runs
	// in-memory only.
	WALDir string

	// SnapshotEvery compacts the WAL into the snapshot after this many
	// live entries. Zero disables compaction. Ignored without WALDir.
	SnapshotEvery int

	// FlightFrames bounds the solve flight recorder: the controller
	// retains the last N epochs' full solve detail (probe trajectories,
	// warm-start outcomes, timings) and dumps the ring to disk when an
	// epoch looks anomalous — lp timeout, cold-fallback spike,
	// degradation, or a recovered panic. Zero disables the recorder
	// (unless Controller.FlightRecorder is set directly).
	FlightFrames int

	// FlightDir receives anomaly dump files. Empty defaults to WALDir,
	// or the working directory when running in-memory.
	FlightDir string

	// Logger receives serving diagnostics; nil selects slog.Default().
	Logger *slog.Logger

	// Log plugs in an externally managed WAL (cluster mode). When set it
	// overrides WALDir, and Replay supplies the history to rebuild state
	// from; the caller keeps ownership of replay ordering and closing
	// semantics beyond what Close does.
	Log WAL

	// Replay is the event history to apply at startup when Log is set.
	Replay []store.Entry

	// Cluster, when non-nil, makes the server role-aware: the epoch loop
	// only ticks while this node leads, and write endpoints redirect to
	// the leader otherwise.
	Cluster ClusterView
}

// Server is the scheduler daemon's core: controller + WAL + clock.
type Server struct {
	mu     sync.Mutex
	g      *netgraph.Graph
	cfg    Config
	ctrl   *controller.Controller
	wal    WAL // nil when running in-memory
	logger *slog.Logger

	maxID     int // highest job ID seen (for auto-assignment)
	seen      map[job.ID]bool
	epochWall time.Time // wall instant of the most recent tick
	closed    bool

	// Admission subsystem.
	intake    *admission.Queue  // sharded lock-free intake buffer
	policy    *admission.Policy // tenant quotas, rate limits, class weights
	recCursor int               // records already quota-released
	pumpStop  chan struct{}     // closes to stop the intake pump
	pumpDone  chan struct{}     // pump goroutine exit signal
	shutdown  chan struct{}     // closes on Close; unblocks queued waiters
}

// New builds a server over the graph. With Config.WALDir set, the
// persisted event history is replayed through a fresh controller first,
// restoring the pre-restart state exactly.
func New(g *netgraph.Graph, cfg Config) (*Server, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if cfg.Controller.Logger == nil {
		cfg.Controller.Logger = logger
	}
	if cfg.FlightFrames > 0 && cfg.Controller.FlightRecorder == nil {
		dir := cfg.FlightDir
		if dir == "" {
			dir = cfg.WALDir
		}
		if dir == "" {
			dir = "."
		}
		cfg.Controller.FlightRecorder = telemetry.NewFlightRecorder(cfg.FlightFrames, dir)
	}
	var acfg admission.Config
	if cfg.Admission != nil {
		acfg = *cfg.Admission
	}
	// The policy's class registry must exist before the controller: its
	// Weight/Rank hooks are closures over the registry, rebuilt identically
	// on WAL replay, so class-weighted schedules stay deterministic across
	// restarts.
	policy := admission.NewPolicy(acfg)
	if cfg.Controller.Weight == nil {
		cfg.Controller.Weight = policy.Weight
	}
	if cfg.Controller.PriorityRank == nil {
		cfg.Controller.PriorityRank = policy.Rank
	}
	ctrl, err := controller.New(g, cfg.Controller)
	if err != nil {
		return nil, err
	}
	s := &Server{
		g: g, cfg: cfg, ctrl: ctrl, logger: logger,
		seen: make(map[job.ID]bool), epochWall: time.Now(),
		intake: admission.NewQueue(0), policy: policy,
		pumpStop: make(chan struct{}), pumpDone: make(chan struct{}),
		shutdown: make(chan struct{}),
	}
	if fr := cfg.Controller.FlightRecorder; fr != nil {
		// Anomaly dumps become durable history: the WAL records when and
		// why each dump happened. The hook fires inside RunEpoch — always
		// under s.mu — so appending without re-locking is safe; during
		// replay s.wal is still nil and the append is a no-op.
		fr.OnDump(func(reason, path string) {
			if err := s.logEvent(store.Entry{Type: store.EntryAnomaly, Reason: reason, Path: path}); err != nil {
				logger.Error("server: wal anomaly entry failed", "err", err)
			}
		})
	}
	switch {
	case cfg.Log != nil:
		if err := s.replay(cfg.Replay); err != nil {
			return nil, err
		}
		s.wal = cfg.Log
		if len(cfg.Replay) > 0 {
			logger.Info("server: replayed event log",
				"entries", len(cfg.Replay), "epochs", ctrl.Epochs, "t", ctrl.Now())
		}
	case cfg.WALDir != "":
		wal, entries, err := store.Open(cfg.WALDir, cfg.SnapshotEvery)
		if err != nil {
			return nil, err
		}
		if err := s.replay(entries); err != nil {
			wal.Close()
			return nil, err
		}
		s.wal = wal
		if len(entries) > 0 {
			logger.Info("server: replayed event log",
				"entries", len(entries), "epochs", ctrl.Epochs, "t", ctrl.Now())
		}
	}
	// Records finalized during replay have already left the system; free
	// their quota before serving so usage reflects live jobs only.
	s.releaseFinishedLocked()
	go s.pump()
	return s, nil
}

// replay re-applies the persisted event history to the fresh controller.
// The controller is deterministic, so this reconstructs the exact
// pre-restart state.
func (s *Server) replay(entries []store.Entry) error {
	for _, e := range entries {
		if err := s.applyEntry(e); err != nil {
			return err
		}
	}
	return nil
}

// applyEntry applies one already-durable log entry to the controller —
// the shared spine of restart replay and follower stream application.
// It never writes to the WAL. Caller holds s.mu (or the server is not
// yet shared).
func (s *Server) applyEntry(e store.Entry) error {
	switch e.Type {
	case store.EntrySubmit:
		// Single-job admissions, written only by older binaries; a WAL on
		// disk may still hold them.
		if e.Job == nil {
			return fmt.Errorf("server: replay entry %d: submit without job", e.Seq)
		}
		if err := s.applyJobEntry(*e.Job, e.Seq); err != nil {
			return err
		}
	case store.EntryBatchSubmit:
		// One intake drain: equivalent to its jobs as individual submit
		// entries, applied in intake order.
		for _, je := range e.Jobs {
			if err := s.applyJobEntry(je, e.Seq); err != nil {
				return err
			}
		}
	case store.EntryEpoch:
		if err := s.ctrl.RunEpoch(); err != nil {
			return fmt.Errorf("server: replay entry %d: %w", e.Seq, err)
		}
		s.epochWall = time.Now()
		s.releaseFinishedLocked()
	case store.EntryLinkDown:
		if err := s.ctrl.LinkDown(netgraph.EdgeID(e.Edge), e.Time); err != nil {
			return fmt.Errorf("server: replay entry %d: %w", e.Seq, err)
		}
		s.releaseFinishedLocked()
	case store.EntryLinkUp:
		if err := s.ctrl.LinkUp(netgraph.EdgeID(e.Edge), e.Time); err != nil {
			return fmt.Errorf("server: replay entry %d: %w", e.Seq, err)
		}
		s.releaseFinishedLocked()
	case store.EntryAnomaly, store.EntryLeadership:
		// Informational: a flight-recorder dump or a leadership change.
		// The controller's audit history regenerates deterministically
		// from the other entries, so there is nothing to re-apply.
	default:
		return fmt.Errorf("server: replay entry %d: unknown type %q", e.Seq, e.Type)
	}
	return nil
}

// applyJobEntry re-applies one durable job admission — shared by submit
// and batch-submit replay. Acceptance re-registers the job's tenant and
// class with the admission policy, so quota accounting and class-scaled
// stage-2 weights rebuild to the exact pre-restart state.
func (s *Server) applyJobEntry(je store.JobEntry, seq uint64) error {
	j := je.Job()
	s.noteID(j.ID)
	if err := s.ctrl.Submit(j); err != nil {
		if errors.Is(err, controller.ErrTooLate) {
			return nil
		}
		return fmt.Errorf("server: replay entry %d: %w", seq, err)
	}
	class, err := admission.ParseClass(je.Priority)
	if err != nil {
		return fmt.Errorf("server: replay entry %d: %w", seq, err)
	}
	s.policy.Register(j.ID, je.Tenant, class, j.Size)
	return nil
}

// Apply applies one replicated, already-fsynced entry to the local
// state machine — the follower-side mirror of what the leader did when
// it appended the entry. Entries must arrive in log order.
func (s *Server) Apply(e store.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("server: closed")
	}
	return s.applyEntry(e)
}

// Reset discards the server's state and rebuilds it by replaying the
// given history through a fresh controller — the recovery path for a
// cluster follower whose local log diverged from the cluster's and was
// replaced wholesale. The WAL handle is untouched: the caller has
// already swapped the underlying log contents to match entries.
func (s *Server) Reset(entries []store.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("server: closed")
	}
	ctrl, err := controller.New(s.g, s.cfg.Controller)
	if err != nil {
		return err
	}
	oldCtrl, oldSeen, oldMax := s.ctrl, s.seen, s.maxID
	s.ctrl = ctrl
	s.seen = make(map[job.ID]bool)
	s.maxID = 0
	s.recCursor = 0
	// Quota accounting rebuilds from the replacement history; replay
	// re-registers every accepted job (applyJobEntry) and the release
	// cursor walks the new record list from the start.
	s.policy.ResetUsage()
	if err := s.replay(entries); err != nil {
		s.ctrl, s.seen, s.maxID = oldCtrl, oldSeen, oldMax
		return err
	}
	s.epochWall = time.Now()
	return nil
}

// noteID records a job ID for duplicate detection and auto-assignment.
func (s *Server) noteID(id job.ID) {
	s.seen[id] = true
	if int(id) > s.maxID {
		s.maxID = int(id)
	}
}

// virtualNow maps the wall clock onto controller time: during a period
// it interpolates linearly from the last tick; while idle (or without a
// running loop) it pins to the next scheduling instant. Link events and
// default arrival stamps use it, and its value is persisted in the WAL,
// so replay never re-reads the wall clock.
func (s *Server) virtualNow() float64 {
	now := s.ctrl.Now()
	if s.cfg.Period <= 0 || s.ctrl.Epochs == 0 {
		return now
	}
	frac := float64(time.Since(s.epochWall)) / float64(s.cfg.Period)
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return now - s.cfg.Controller.Tau*(1-frac)
}

// logEvent appends to the WAL (when durable) before the event is applied.
func (s *Server) logEvent(e store.Entry) error {
	if s.wal == nil {
		return nil
	}
	_, err := s.wal.Append(e)
	return err
}

// Tick executes one scheduling epoch: WAL the boundary, then run
// admission/planning and advance the virtual clock by τ. Safe to call
// concurrently with HTTP traffic.
func (s *Server) Tick() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tickLocked()
}

func (s *Server) tickLocked() error {
	if s.closed {
		return fmt.Errorf("server: closed")
	}
	if s.cfg.Cluster != nil && !s.cfg.Cluster.IsLeader() {
		return fmt.Errorf("server: not the leader; epochs advance via the replicated stream")
	}
	// Sweep the intake backlog into this epoch first, so the scheduling
	// instant sees every submission buffered before its WAL boundary.
	s.drainIntakeLocked()
	if err := s.logEvent(store.Entry{Type: store.EntryEpoch}); err != nil {
		if !errors.Is(err, ErrNoQuorum) {
			return err
		}
		// The epoch boundary is fsynced locally but under-replicated.
		// State must follow the local log (determinism), so run the epoch
		// anyway; the lease/fencing machinery deposes us if we are truly
		// partitioned.
		s.logger.Warn("server: epoch under-replicated", "err", err)
	}
	if err := s.ctrl.RunEpoch(); err != nil {
		return err
	}
	s.releaseFinishedLocked()
	s.epochWall = time.Now()
	telTicks.Inc()
	return nil
}

// busy reports whether an epoch would do anything: pending submissions,
// unfinished admitted jobs, or an unsettled commitment.
func (s *Server) busy() bool {
	if s.ctrl.PendingCount() > 0 || s.ctrl.ActiveCount() > 0 {
		return true
	}
	_, _, _, committed := s.ctrl.CommittedSchedule()
	return committed
}

// Run drives the wall-clock epoch loop until ctx is cancelled. Ticker
// firings while the system is fully idle are skipped — the virtual clock
// freezes rather than filling the WAL with empty epochs — and resume
// with the first submission. Run returns nil after ctx ends; call Close
// to settle and release the WAL.
func (s *Server) Run(ctx context.Context) error {
	if s.cfg.Period <= 0 {
		<-ctx.Done()
		return nil
	}
	ticker := time.NewTicker(s.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return nil
			}
			if s.cfg.Cluster != nil && !s.cfg.Cluster.IsLeader() {
				// Followers' epochs arrive through the replicated stream;
				// ticking locally would fork the log.
				s.epochWall = time.Now()
				s.mu.Unlock()
				continue
			}
			if !s.busy() {
				telIdleSkips.Inc()
				s.epochWall = time.Now()
				s.mu.Unlock()
				continue
			}
			err := s.tickLocked()
			s.mu.Unlock()
			if err != nil {
				s.logger.Error("server: epoch tick failed", "err", err)
			}
		}
	}
}

// Close settles the in-flight commitment — crediting every transfer the
// committed schedule still owes — stops the intake pump, resolves any
// submissions still queued (with a shutdown error), and closes the WAL.
// The server rejects all traffic afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.shutdown) // unblocks handlers waiting on queued decisions
	s.ctrl.Records()  // settle in-flight commitments
	s.releaseFinishedLocked()
	var err error
	if s.wal != nil {
		err = s.wal.Close()
	}
	s.mu.Unlock()
	close(s.pumpStop)
	<-s.pumpDone
	// The pump is gone; one final drain (now the sole consumer) rejects
	// any submissions that slipped in during shutdown.
	s.mu.Lock()
	s.drainIntakeLocked()
	s.mu.Unlock()
	return err
}

// Records settles and returns the controller's final accounting, for
// tests and the drain path.
func (s *Server) Records() []controller.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.Records()
}

// Controller exposes the underlying controller for tests. Callers must
// not mutate it while the server is live.
func (s *Server) Controller() *controller.Controller { return s.ctrl }

// Explain returns a job's decision history. ok is false when the
// controller has never seen the job.
func (s *Server) Explain(id job.ID) (controller.Explanation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.Explain(id)
}

// AuditByTrace returns every audit event produced under one trace ID
// (= epoch index), across all jobs, in decision order.
func (s *Server) AuditByTrace(trace int64) []controller.AuditEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.AuditByTrace(trace)
}

// FlightFrames returns the flight recorder's retained epoch frames,
// oldest first; nil when the recorder is disabled.
func (s *Server) FlightFrames() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := s.cfg.Controller.FlightRecorder
	if fr == nil {
		return nil
	}
	return fr.Frames()
}

// DumpFlight forces a flight-recorder dump (SIGQUIT path, tests).
// Returns the dump path, or "" when the recorder is disabled. Held
// under s.mu so the WAL anomaly append in the dump hook never races a
// concurrent tick.
func (s *Server) DumpFlight(reason string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := s.cfg.Controller.FlightRecorder
	if fr == nil {
		return "", nil
	}
	return fr.Dump(reason)
}
