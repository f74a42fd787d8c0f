package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/store"
)

// TestKillAndRestartReplay is the durability acceptance test: a daemon
// killed mid-stream (no graceful settle) must replay snapshot+WAL on
// restart and end up with records identical to a server that lived
// through the whole history in memory.
func TestKillAndRestartReplay(t *testing.T) {
	dir := t.TempDir()
	durable := Config{WALDir: dir, SnapshotEvery: 4} // small: compaction must trigger

	// Phase 1 ops run against server A, phase 2 against the restarted B.
	phase1 := func(t *testing.T, h http.Handler) {
		for _, j := range []job.Job{
			{ID: 1, Src: 0, Dst: 2, Size: 4, Start: 0, End: 9},
			{ID: 2, Src: 1, Dst: 3, Size: 3, Start: 0, End: 7},
			{ID: 3, Src: 2, Dst: 0, Size: 5, Start: 1, End: 10},
		} {
			if rec := do(t, h, http.MethodPost, "/v1/jobs", submitBody(j), nil); rec.Code != http.StatusAccepted {
				t.Fatalf("phase1 submit %d: code %d body %s", j.ID, rec.Code, rec.Body.String())
			}
		}
		do(t, h, http.MethodPost, "/v1/links/1/down", linkRequest{Time: ptr(0.5)}, nil)
	}
	phase2 := func(t *testing.T, h http.Handler) {
		do(t, h, http.MethodPost, "/v1/links/1/up", linkRequest{Time: ptr(1.5)}, nil)
		if rec := do(t, h, http.MethodPost, "/v1/jobs",
			submitBody(job.Job{ID: 4, Src: 3, Dst: 1, Size: 2, Start: 2, End: 8}), nil); rec.Code != http.StatusAccepted {
			t.Fatalf("phase2 submit: code %d body %s", rec.Code, rec.Body.String())
		}
	}

	g := netgraph.Ring(4, 2, 10)
	a := newTestServer(t, g, durable)
	ha := a.Handler()
	phase1(t, ha)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	// Kill: drop the process without settling. Only the WAL survives.
	if err := a.wal.Close(); err != nil {
		t.Fatal(err)
	}
	a.closed = true

	// Compaction must have happened with SnapshotEvery=4 and 5+ entries.
	if st, err := os.Stat(filepath.Join(dir, "snapshot.jsonl")); err != nil || st.Size() == 0 {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}

	b := newTestServer(t, g, durable)
	if b.ctrl.Epochs != 1 {
		t.Fatalf("restarted server replayed %d epochs, want 1", b.ctrl.Epochs)
	}
	hb := b.Handler()
	phase2(t, hb)
	drainServer(t, b, 30)
	got := recordsBytes(t, b.Records())

	// Control: one in-memory server sees the whole history directly.
	c := newTestServer(t, netgraph.Ring(4, 2, 10), Config{})
	hc := c.Handler()
	phase1(t, hc)
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	phase2(t, hc)
	drainServer(t, c, 30)
	want := recordsBytes(t, c.Records())

	if !bytes.Equal(got, want) {
		t.Fatalf("records after kill+restart differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// A second restart with no new traffic is also byte-identical.
	b2 := newTestServer(t, netgraph.Ring(4, 2, 10), durable)
	if got2 := recordsBytes(t, b2.Records()); !bytes.Equal(got2, want) {
		t.Fatalf("second restart diverged:\n got %s\nwant %s", got2, want)
	}
}

func ptr[T any](v T) *T { return &v }

// TestReplayLegacySubmitEntries: a WAL written by an older binary holds
// one single-job submit entry per admission. Replaying it must rebuild
// the state a live server reaches from the same jobs over HTTP and the
// same ticks.
func TestReplayLegacySubmitEntries(t *testing.T) {
	first := []job.Job{
		{ID: 1, Src: 0, Dst: 2, Size: 4, Start: 0, End: 9},
		{ID: 2, Src: 1, Dst: 3, Size: 3, Start: 0, End: 7},
	}
	second := job.Job{ID: 3, Src: 2, Dst: 0, Size: 5, Arrival: 1, Start: 1, End: 10}

	dir := t.TempDir()
	wal, _, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []store.Entry{
		{Type: store.EntrySubmit, Job: store.NewJobEntry(first[0])},
		{Type: store.EntrySubmit, Job: store.NewJobEntry(first[1])},
		{Type: store.EntryEpoch},
		{Type: store.EntrySubmit, Job: store.NewJobEntry(second)},
		{Type: store.EntryEpoch},
	} {
		if _, err := wal.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := newTestServer(t, netgraph.Ring(4, 2, 10), Config{WALDir: dir})

	live := newTestServer(t, netgraph.Ring(4, 2, 10), Config{})
	h := live.Handler()
	for _, batch := range [][]job.Job{first, {second}} {
		for _, j := range batch {
			if rec := do(t, h, http.MethodPost, "/v1/jobs", submitBody(j), nil); rec.Code != http.StatusAccepted {
				t.Fatalf("submit %d: code %d body %s", j.ID, rec.Code, rec.Body.String())
			}
		}
		if err := live.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	drainServer(t, replayed, 30)
	drainServer(t, live, 30)
	recs := replayed.Records()
	if len(recs) != 3 {
		t.Fatalf("replayed server has %d records, want 3", len(recs))
	}
	got, want := recordsBytes(t, recs), recordsBytes(t, live.Records())
	if !bytes.Equal(got, want) {
		t.Fatalf("legacy WAL replay differs from the live run:\n got %s\nwant %s", got, want)
	}
}

// TestConcurrentSubmitters exercises the single-writer discipline under
// the race detector: many goroutines POST jobs over real HTTP while the
// wall-clock epoch loop ticks.
func TestConcurrentSubmitters(t *testing.T) {
	g := netgraph.Line(2, 4, 10)
	s := newTestServer(t, g, Config{
		Controller: controller.Config{Tau: 1, SliceLen: 1, K: 1, Policy: controller.PolicyMaxThroughput},
		Period:     2 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); _ = s.Run(ctx) }()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*100 + i + 1
				// Keep End modest: the planning horizon (and so LP size)
				// scales with the latest deadline.
				body := fmt.Sprintf(`{"id":%d,"src":0,"dst":1,"size":1,"start":0,"end":40}`, id)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					errc <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errc <- fmt.Errorf("job %d: status %d", id, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Wait for the epoch loop to drain everything it accepted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		idle := !s.busy()
		s.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("epoch loop did not drain the submitted jobs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-loopDone

	recs := s.Records()
	if len(recs) != workers*perWorker {
		t.Fatalf("records = %d, want %d", len(recs), workers*perWorker)
	}
	for _, r := range recs {
		if !r.Completed {
			t.Errorf("job %d not completed: %+v", r.Job.ID, r)
		}
	}
}
