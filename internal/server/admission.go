package server

import (
	"errors"
	"fmt"
	"sort"

	"wavesched/internal/admission"
	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/store"
)

// Server-side failures a drain resolves submissions with; rejectionFor
// maps them to 5xx so a client never reads them as a bad job.
var (
	// errWALAppend: the batch entry could not be made durable (a failed
	// or fenced append), so nothing in it was applied.
	errWALAppend = errors.New("wal append")
	// errShuttingDown: the server closed before the submission was drained.
	errShuttingDown = errors.New("server is shutting down")
)

// pump is the intake queue's single consumer between epoch ticks: it
// wakes when submissions arrive and drains the backlog as one batch
// under the server's write lock. Batching is the group-commit kind —
// natural, not timed: while one drain's WAL fsync is in flight, new
// submissions pile up lock-free and the next drain takes them all, so
// under load the batch size grows to match the fsync latency and the
// cost per submission collapses toward zero. Epoch ticks additionally
// drain inline (see tickLocked) so a scheduling instant always sees
// every submission buffered before it.
func (s *Server) pump() {
	defer close(s.pumpDone)
	for {
		select {
		case <-s.pumpStop:
			return
		case <-s.intake.Wake():
			s.mu.Lock()
			s.drainIntakeLocked()
			s.mu.Unlock()
		}
	}
}

// nextFreeID allocates the next unused job ID at or after *cursor,
// skipping IDs claimed earlier in the same batch, and advances the
// cursor past the claim. The batch-local cursor keeps a drain of N
// auto-ID submissions at O(N) total probes instead of re-scanning from
// maxID for each one. Caller holds s.mu.
func (s *Server) nextFreeID(cursor *job.ID, inBatch map[job.ID]bool) job.ID {
	id := *cursor
	for s.seen[id] || inBatch[id] {
		id++
	}
	*cursor = id + 1
	return id
}

// drainIntakeLocked applies the intake backlog as one batch: resolve
// IDs and arrival stamps, run the duplicate/validation/quota gates,
// append ONE batch entry to the WAL (one fsync for the whole drain),
// then admit the survivors and resolve every waiter. Caller holds s.mu.
//
// Rejections never reach the WAL: the durable log records only accepted
// submissions, so replay — which cannot re-run wall-clock rate limits or
// see the rejected requests — reproduces the controller's input exactly.
func (s *Server) drainIntakeLocked() {
	subs := s.intake.Drain()
	if len(subs) == 0 {
		return
	}
	if s.closed {
		for _, sub := range subs {
			sub.Resolve(admission.Decision{ID: sub.Job.ID, Err: errShuttingDown})
		}
		return
	}

	// Priority classes order the batch: critical submissions hit the
	// duplicate and quota gates first, so when a tenant's quota runs out
	// mid-batch it is the scavengers that get shed. Ties keep arrival
	// (sequence) order, which Drain already established.
	sort.SliceStable(subs, func(a, b int) bool {
		return subs[a].Class.Rank() < subs[b].Class.Rank()
	})

	type candidate struct {
		sub *admission.Submission
		j   job.Job
	}
	var accepted []candidate
	inBatch := make(map[job.ID]bool)
	idCursor := job.ID(s.maxID + 1)
	for _, sub := range subs {
		j := sub.Job
		if sub.AssignID {
			j.ID = s.nextFreeID(&idCursor, inBatch)
		}
		if sub.Arrival != nil {
			j.Arrival = *sub.Arrival
		} else {
			j.Arrival = s.virtualNow()
			if j.Arrival > j.Start {
				j.Arrival = j.Start
			}
		}
		// The duplicate gate runs here — inside the drain, under the same
		// lock that applies the batch — so N concurrent submitters of one
		// ID race for exactly one acceptance, whether the collision is
		// with history (s.seen) or within this very batch.
		if s.seen[j.ID] || inBatch[j.ID] {
			admission.CountDuplicate()
			telSubmitConflicts.Inc()
			sub.Resolve(admission.Decision{ID: j.ID, Err: admission.ErrDuplicateID})
			continue
		}
		if err := j.Validate(); err != nil {
			sub.Resolve(admission.Decision{ID: j.ID, Err: err})
			continue
		}
		if int(j.Src) >= s.g.NumNodes() || int(j.Dst) >= s.g.NumNodes() || j.Src < 0 || j.Dst < 0 {
			sub.Resolve(admission.Decision{ID: j.ID, Err: fmt.Errorf("src/dst outside the network")})
			continue
		}
		if err := s.policy.AdmitCheck(sub.Tenant, j.Size); err != nil {
			sub.Resolve(admission.Decision{ID: j.ID, Err: err})
			continue
		}
		// Register immediately so the next candidate's quota check sees
		// this one's demand; released again below if the job fails late.
		s.policy.Register(j.ID, sub.Tenant, sub.Class, j.Size)
		inBatch[j.ID] = true
		accepted = append(accepted, candidate{sub: sub, j: j})
	}
	if len(accepted) == 0 {
		return
	}

	// Durability before acknowledgement, amortized: the whole batch is
	// one WAL entry, one write, one fsync — and in cluster mode one
	// replicated record, so followers apply the batch boundary intact.
	entry := store.Entry{Type: store.EntryBatchSubmit}
	for _, c := range accepted {
		je := store.NewJobEntry(c.j)
		je.Tenant = c.sub.Tenant
		je.Priority = string(c.sub.Class)
		entry.Jobs = append(entry.Jobs, *je)
	}
	degraded := false
	if err := s.logEvent(entry); err != nil {
		if !errors.Is(err, ErrNoQuorum) {
			for _, c := range accepted {
				s.policy.Release(c.j.ID)
				c.sub.Resolve(admission.Decision{ID: c.j.ID, Err: fmt.Errorf("%w: %w", errWALAppend, err)})
			}
			return
		}
		degraded = true
	}
	for _, c := range accepted {
		s.noteID(c.j.ID)
		if err := s.ctrl.Submit(c.j); err != nil {
			// ErrTooLate is deterministic (it depends only on the virtual
			// clock and the job tuple, both in the WAL entry), so replay
			// reaches the same verdict and the log stays consistent.
			s.policy.Release(c.j.ID)
			if errors.Is(err, controller.ErrTooLate) {
				telSubmitConflicts.Inc()
			}
			c.sub.Resolve(admission.Decision{ID: c.j.ID, Err: err})
			continue
		}
		telSubmitted.Inc()
		c.sub.Resolve(admission.Decision{ID: c.j.ID, Degraded: degraded})
	}
}

// releaseFinishedLocked frees quota held by jobs whose records were
// finalized since the last call (completion, deadline expiry, rejection,
// disruption). Caller holds s.mu.
func (s *Server) releaseFinishedLocked() {
	for _, r := range s.ctrl.RecordsFrom(s.recCursor) {
		s.policy.Release(r.Job.ID)
	}
	s.recCursor = s.ctrl.RecordCount()
}
