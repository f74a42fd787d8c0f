package admission

import (
	"errors"
	"sync"
	"testing"
	"time"

	"wavesched/internal/job"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		err  bool
	}{
		{"", ClassStandard, false},
		{"critical", ClassCritical, false},
		{"standard", ClassStandard, false},
		{"scavenger", ClassScavenger, false},
		{"urgent", "", true},
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseClass(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseClass(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestClassRankOrder(t *testing.T) {
	if !(ClassCritical.Rank() < ClassStandard.Rank() && ClassStandard.Rank() < ClassScavenger.Rank()) {
		t.Fatalf("rank order wrong: critical=%d standard=%d scavenger=%d",
			ClassCritical.Rank(), ClassStandard.Rank(), ClassScavenger.Rank())
	}
}

func TestQuotaJobsAndDemand(t *testing.T) {
	p := NewPolicy(Config{Tenants: map[string]TenantPolicy{
		"alice": {MaxJobs: 2, MaxDemand: 10},
	}})
	if err := p.AdmitCheck("alice", 6); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	p.Register(1, "alice", ClassStandard, 6)
	// Demand quota: 6 + 5 > 10.
	if err := p.AdmitCheck("alice", 5); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("demand overflow: got %v, want ErrQuotaExceeded", err)
	}
	if err := p.AdmitCheck("alice", 4); err != nil {
		t.Fatalf("second admit: %v", err)
	}
	p.Register(2, "alice", ClassStandard, 4)
	// Job-count quota: 2 jobs live.
	if err := p.AdmitCheck("alice", 0.5); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("job overflow: got %v, want ErrQuotaExceeded", err)
	}
	// Releasing frees quota; double release is a no-op.
	p.Release(1)
	p.Release(1)
	if err := p.AdmitCheck("alice", 6); err != nil {
		t.Fatalf("post-release admit: %v", err)
	}
	// Unlimited default tenant.
	if err := p.AdmitCheck("bob", 1e12); err != nil {
		t.Fatalf("default tenant should be unlimited: %v", err)
	}
}

func TestRateLimitTokenBucket(t *testing.T) {
	p := NewPolicy(Config{Tenants: map[string]TenantPolicy{
		"alice": {RatePerSec: 10, Burst: 2},
	}})
	now := time.Unix(1000, 0)
	p.nowFn = func() time.Time { return now }

	// Bucket starts full at burst=2.
	for i := 0; i < 2; i++ {
		if _, err := p.AllowRate("alice"); err != nil {
			t.Fatalf("burst token %d refused: %v", i, err)
		}
	}
	retry, err := p.AllowRate("alice")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("empty bucket: got %v, want ErrRateLimited", err)
	}
	if retry <= 0 || retry > 0.2 {
		t.Fatalf("retry-after = %g, want in (0, 0.1] at 10/s", retry)
	}
	// 100 ms refills one token at 10/s.
	now = now.Add(100 * time.Millisecond)
	if _, err := p.AllowRate("alice"); err != nil {
		t.Fatalf("post-refill: %v", err)
	}
	// Unlimited tenant never refuses.
	for i := 0; i < 100; i++ {
		if _, err := p.AllowRate("bob"); err != nil {
			t.Fatalf("unlimited tenant refused: %v", err)
		}
	}
}

func TestRequireTenant(t *testing.T) {
	p := NewPolicy(Config{
		RequireTenant: true,
		Tenants:       map[string]TenantPolicy{"alice": {}},
	})
	if err := p.CheckTenant("alice"); err != nil {
		t.Fatalf("configured tenant: %v", err)
	}
	if err := p.CheckTenant("mallory"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: got %v, want ErrUnknownTenant", err)
	}
	if err := p.CheckTenant(""); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("anonymous tenant: got %v, want ErrUnknownTenant", err)
	}
	open := NewPolicy(Config{})
	if err := open.CheckTenant("anyone"); err != nil {
		t.Fatalf("open policy: %v", err)
	}
}

func TestClassWeights(t *testing.T) {
	p := NewPolicy(Config{})
	p.Register(1, "", ClassCritical, 4)
	p.Register(2, "", ClassStandard, 4)
	p.Register(3, "", ClassScavenger, 4)
	j := func(id job.ID) job.Job { return job.Job{ID: id, Size: 4} }
	if w := p.Weight(j(1)); w != 32 {
		t.Errorf("critical weight = %g, want 32", w)
	}
	if w := p.Weight(j(2)); w != 4 {
		t.Errorf("standard weight = %g, want 4", w)
	}
	if w := p.Weight(j(3)); w != 0.5 {
		t.Errorf("scavenger weight = %g, want 0.5", w)
	}
	// Unregistered jobs fall back to size (standard).
	if w := p.Weight(j(9)); w != 4 {
		t.Errorf("unregistered weight = %g, want 4", w)
	}
	if r := p.Rank(j(1)); r != 0 {
		t.Errorf("critical rank = %d, want 0", r)
	}
	if r := p.Rank(j(3)); r != 2 {
		t.Errorf("scavenger rank = %d, want 2", r)
	}
}

func TestUsageSnapshotAndReset(t *testing.T) {
	p := NewPolicy(Config{})
	p.Register(1, "alice", ClassStandard, 3)
	p.Register(2, "alice", ClassStandard, 2)
	p.Register(3, "bob", ClassCritical, 7)
	us := p.Usage()
	if len(us) != 2 {
		t.Fatalf("usage tenants = %d, want 2", len(us))
	}
	byName := map[string]TenantUsage{}
	for _, u := range us {
		byName[u.Tenant] = u
	}
	if u := byName["alice"]; u.Jobs != 2 || u.Demand != 5 {
		t.Errorf("alice usage = %+v, want 2 jobs / 5 demand", u)
	}
	p.ResetUsage()
	if got := p.Usage(); len(got) != 0 {
		t.Fatalf("post-reset usage = %v, want empty", got)
	}
	if c := p.Class(3); c != ClassStandard {
		t.Fatalf("post-reset class = %q, want standard fallback", c)
	}
}

func TestQueueDrainOrderAndDepth(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 10; i++ {
		q.Enqueue(&Submission{Job: job.Job{ID: job.ID(i)}})
	}
	if d := q.Depth(); d != 10 {
		t.Fatalf("depth = %d, want 10", d)
	}
	subs := q.Drain()
	if len(subs) != 10 {
		t.Fatalf("drained %d, want 10", len(subs))
	}
	for i, s := range subs {
		if s.Job.ID != job.ID(i) {
			t.Fatalf("drain order broken at %d: job %d", i, s.Job.ID)
		}
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("post-drain depth = %d, want 0", d)
	}
	if again := q.Drain(); again != nil {
		t.Fatalf("empty drain returned %d submissions", len(again))
	}
}

func TestQueueConcurrentEnqueue(t *testing.T) {
	q := NewQueue(8)
	const writers, per = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(&Submission{Job: job.Job{ID: job.ID(w*per + i)}})
			}
		}(w)
	}
	wg.Wait()
	subs := q.Drain()
	if len(subs) != writers*per {
		t.Fatalf("drained %d, want %d", len(subs), writers*per)
	}
	seen := make(map[job.ID]bool, len(subs))
	var last uint64
	for i, s := range subs {
		if seen[s.Job.ID] {
			t.Fatalf("job %d drained twice", s.Job.ID)
		}
		seen[s.Job.ID] = true
		if i > 0 && s.seq <= last {
			t.Fatalf("sequence order broken at %d: %d after %d", i, s.seq, last)
		}
		last = s.seq
	}
}

func TestQueueWakeSignal(t *testing.T) {
	q := NewQueue(2)
	select {
	case <-q.Wake():
		t.Fatal("wake before any enqueue")
	default:
	}
	q.Enqueue(&Submission{})
	select {
	case <-q.Wake():
	case <-time.After(time.Second):
		t.Fatal("no wake after enqueue")
	}
}

func TestSubmissionResolveWait(t *testing.T) {
	q := NewQueue(1)
	s := q.Enqueue(&Submission{Job: job.Job{ID: 7}})
	go func() {
		for _, d := range q.Drain() {
			d.Resolve(Decision{ID: d.Job.ID, Err: ErrQuotaExceeded, RetryAfter: 1.5})
		}
	}()
	d := s.Wait()
	if d.ID != 7 || !errors.Is(d.Err, ErrQuotaExceeded) || d.RetryAfter != 1.5 {
		t.Fatalf("decision = %+v", d)
	}
}

// TestQueueDrainsBatchesWhole pushes many multi-job requests while a
// consumer drains concurrently: every drain must hold each request's
// submissions all together, consecutive in sequence order, or not at all.
func TestQueueDrainsBatchesWhole(t *testing.T) {
	q := NewQueue(4)
	const writers, batches, size = 8, 50, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				subs := make([]*Submission, size)
				for i := range subs {
					subs[i] = &Submission{Job: job.Job{ID: job.ID((w*batches+b)*size + i)}}
				}
				q.EnqueueAll(subs)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	total := 0
	check := func(subs []*Submission) {
		for i := 0; i < len(subs); {
			first := subs[i].Job.ID
			if first%size != 0 {
				t.Fatalf("drain starts a request mid-way, at job %d", first)
			}
			for k := 0; k < size; k++ {
				if i+k >= len(subs) || subs[i+k].Job.ID != first+job.ID(k) || subs[i+k].seq != subs[i].seq+uint64(k) {
					t.Fatalf("request of job %d split or interleaved in a drain", first)
				}
			}
			i += size
		}
		total += len(subs)
	}
	for {
		select {
		case <-done:
			check(q.Drain())
			if total != writers*batches*size {
				t.Fatalf("drained %d submissions, want %d", total, writers*batches*size)
			}
			return
		default:
			check(q.Drain())
		}
	}
}
