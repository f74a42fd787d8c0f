package admission

import (
	"sort"
	"sync/atomic"
	"time"

	"wavesched/internal/job"
)

// Submission is one job submission in flight through the intake queue.
// The HTTP handler fills the request half, enqueues, and blocks on Done;
// the drain fills the Decision and closes the wait.
type Submission struct {
	// Job as parsed from the wire. When AssignID is set the ID field is
	// unset and the drain allocates the next free ID; Arrival is stamped
	// at drain time (under the server lock, from the virtual clock)
	// unless the request pinned it.
	Job      job.Job
	Tenant   string
	Class    Class
	AssignID bool
	// Arrival, if non-nil, pins the job's arrival time (trace replay);
	// nil lets the drain stamp the current virtual time.
	Arrival *float64

	// EnqueuedAt feeds the ack-latency histogram.
	EnqueuedAt time.Time

	seq  uint64
	done chan Decision
}

// Decision is the outcome of one submission, delivered exactly once.
type Decision struct {
	// ID is the job's final ID (meaningful even for rejections when the
	// request supplied one).
	ID job.ID
	// Err is nil on acceptance; otherwise one of the typed admission
	// errors, controller.ErrTooLate, or a validation error.
	Err error
	// RetryAfter, when positive, is the client back-off hint in seconds
	// (rate limiting).
	RetryAfter float64
	// Degraded marks an acceptance that could not reach replication
	// quorum: durable locally, acked as "pending".
	Degraded bool
}

// Wait blocks until the drain resolves the submission.
func (s *Submission) Wait() Decision { return <-s.done }

// Done exposes the decision channel for select loops (client timeout,
// server shutdown).
func (s *Submission) Done() <-chan Decision { return s.done }

// Resolve delivers the decision. Must be called exactly once per
// enqueued submission, by the drain.
func (s *Submission) Resolve(d Decision) {
	if !s.EnqueuedAt.IsZero() {
		telAckSeconds.ObserveSince(s.EnqueuedAt)
	}
	s.done <- d
	close(s.done)
}

// node is a Treiber-stack cell: the submissions of one request, which a
// drain takes whole.
type node struct {
	subs []*Submission
	next *node
}

// Queue is the sharded lock-free intake buffer. Producers (HTTP handler
// goroutines) push each request with one atomic fetch-add and one CAS;
// the single consumer (the epoch tick, under the server's write lock)
// swaps every shard head to nil and rebuilds arrival order from the
// global sequence numbers. There are no locks anywhere on the enqueue path, so thousands
// of concurrent submitters never contend on more than a CAS retry.
type Queue struct {
	shards []atomic.Pointer[node]
	seq    atomic.Uint64
	depth  atomic.Int64
	wake   chan struct{}
}

// NewQueue builds an intake queue with the given shard count (≤0 → 8).
func NewQueue(shards int) *Queue {
	if shards <= 0 {
		shards = 8
	}
	return &Queue{
		shards: make([]atomic.Pointer[node], shards),
		wake:   make(chan struct{}, 1),
	}
}

// Enqueue pushes a submission and returns it with its wait channel armed.
// Safe for any number of concurrent callers.
func (q *Queue) Enqueue(s *Submission) *Submission {
	q.EnqueueAll([]*Submission{s})
	return s
}

// EnqueueAll pushes the submissions of one request as a unit, with their
// wait channels armed: they take contiguous sequence numbers and one CAS,
// so a drain returns all of them or none. Safe for any number of
// concurrent callers.
func (q *Queue) EnqueueAll(subs []*Submission) {
	if len(subs) == 0 {
		return
	}
	last := q.seq.Add(uint64(len(subs)))
	now := time.Now()
	for i, s := range subs {
		s.seq = last - uint64(len(subs)-1-i)
		s.done = make(chan Decision, 1)
		if s.EnqueuedAt.IsZero() {
			s.EnqueuedAt = now
		}
	}
	n := &node{subs: subs}
	head := &q.shards[last%uint64(len(q.shards))]
	for {
		old := head.Load()
		n.next = old
		if head.CompareAndSwap(old, n) {
			break
		}
	}
	telDepth.Set(float64(q.depth.Add(int64(len(subs)))))
	// Nudge the pump; a full buffer means a wake-up is already pending.
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Wake is the pump's signal channel: readable whenever submissions may
// have arrived since the last drain.
func (q *Queue) Wake() <-chan struct{} { return q.wake }

// Depth reports the submissions currently buffered.
func (q *Queue) Depth() int { return int(q.depth.Load()) }

// Drain atomically detaches every shard and returns the backlog in
// enqueue order (by global sequence number). Single consumer only.
func (q *Queue) Drain() []*Submission {
	var out []*Submission
	for i := range q.shards {
		for n := q.shards[i].Swap(nil); n != nil; n = n.next {
			out = append(out, n.subs...)
		}
	}
	if len(out) == 0 {
		return nil
	}
	telDepth.Set(float64(q.depth.Add(int64(-len(out)))))
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	telBatches.Inc()
	telBatchJobs.Observe(float64(len(out)))
	return out
}
