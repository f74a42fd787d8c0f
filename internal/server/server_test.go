package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/sim"
	"wavesched/internal/telemetry"
)

func newTestServer(t *testing.T, g *netgraph.Graph, cfg Config) *Server {
	t.Helper()
	if cfg.Controller.Tau == 0 {
		cfg.Controller = controller.Config{Tau: 1, SliceLen: 1, K: 2, Policy: controller.PolicyMaxThroughput}
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// do issues one request against the server's handler and decodes the
// JSON response into out (skipped when out is nil).
func do(t *testing.T, h http.Handler, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func submitBody(j job.Job) submitRequest {
	id := int(j.ID)
	arr := j.Arrival
	return submitRequest{
		ID: &id, Src: int(j.Src), Dst: int(j.Dst),
		Size: j.Size, Start: j.Start, End: j.End, Arrival: &arr,
	}
}

func drainServer(t *testing.T, s *Server, maxTicks int) {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		if s.ctrl.PendingCount() == 0 && s.ctrl.ActiveCount() == 0 {
			if _, _, _, committed := s.ctrl.CommittedSchedule(); !committed {
				return
			}
		}
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("server not drained after %d ticks", maxTicks)
}

func recordsBytes(t *testing.T, recs []controller.Record) []byte {
	t.Helper()
	controller.SortRecordsByFinish(recs)
	b, err := json.Marshal(controller.RecordsJSON(recs))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEndToEndMatchesSim is the acceptance test: jobs submitted over
// HTTP and driven by epoch ticks must finish with exactly the statuses
// an equivalent direct sim.Run produces.
func TestEndToEndMatchesSim(t *testing.T) {
	g := netgraph.Ring(4, 2, 10)
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 2, Size: 4, Start: 0, End: 6},
		{ID: 2, Src: 1, Dst: 3, Size: 3, Start: 0, End: 5},
		{ID: 3, Src: 0, Dst: 1, Size: 6, Start: 1, End: 8},
		{ID: 4, Src: 2, Dst: 0, Size: 2, Start: 0, End: 3},
		{ID: 5, Src: 3, Dst: 1, Size: 0.5, Start: 0, End: 0.4}, // dead window: rejected
	}

	s := newTestServer(t, g, Config{})
	h := s.Handler()
	for _, j := range jobs {
		var resp submitResponse
		rec := do(t, h, http.MethodPost, "/v1/jobs", submitBody(j), &resp)
		wantCode := http.StatusAccepted
		if j.ID == 5 {
			// End before one slice fits is still accepted at submit (the
			// epoch rejects it); only End <= now is a 409. This one has
			// End in the future, so it is buffered.
			wantCode = http.StatusAccepted
		}
		if rec.Code != wantCode {
			t.Fatalf("submit job %d: code %d body %s", j.ID, rec.Code, rec.Body.String())
		}
	}
	drainServer(t, s, 20)
	httpRecs := s.Records()

	ctrl, err := controller.New(g, controller.Config{Tau: 1, SliceLen: 1, K: 2, Policy: controller.PolicyMaxThroughput})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(ctrl, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}

	got, want := recordsBytes(t, httpRecs), recordsBytes(t, simRes.Records)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP-driven records differ from sim.Run:\n got %s\nwant %s", got, want)
	}

	// The status listing agrees with the records.
	var list jobListResponse
	do(t, h, http.MethodGet, "/v1/jobs", nil, &list)
	if len(list.Jobs) != len(jobs) {
		t.Fatalf("job list has %d entries, want %d", len(list.Jobs), len(jobs))
	}
	for _, st := range list.Jobs {
		if st.State == string(controller.JobPending) || st.State == string(controller.JobActive) {
			t.Errorf("job %d still %s after drain", st.JobID, st.State)
		}
	}
}

func TestSubmitValidationAndConflicts(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	s := newTestServer(t, g, Config{})
	h := s.Handler()

	// Auto-assigned IDs start at 1 and increment.
	var resp submitResponse
	rec := do(t, h, http.MethodPost, "/v1/jobs",
		submitRequest{Src: 0, Dst: 1, Size: 2, Start: 0, End: 8}, &resp)
	if rec.Code != http.StatusAccepted || resp.ID != 1 {
		t.Fatalf("auto-id submit: code %d resp %+v", rec.Code, resp)
	}
	rec = do(t, h, http.MethodPost, "/v1/jobs",
		submitRequest{Src: 0, Dst: 1, Size: 2, Start: 0, End: 8}, &resp)
	if rec.Code != http.StatusAccepted || resp.ID != 2 {
		t.Fatalf("second auto-id submit: code %d resp %+v", rec.Code, resp)
	}

	// Duplicate explicit ID: 409 with a structured rejection envelope.
	var rej rejectResponse
	rec = do(t, h, http.MethodPost, "/v1/jobs",
		submitBody(job.Job{ID: 1, Src: 0, Dst: 1, Size: 1, Start: 0, End: 8}), &rej)
	if rec.Code != http.StatusConflict || rej.Error.Code != "duplicate_id" {
		t.Fatalf("duplicate id: code %d envelope %+v, want 409 duplicate_id", rec.Code, rej)
	}

	// Invalid 6-tuples: 400.
	for i, bad := range []submitRequest{
		{Src: 0, Dst: 0, Size: 1, Start: 0, End: 8}, // src == dst
		{Src: 0, Dst: 1, Size: 0, Start: 0, End: 8}, // zero size
		{Src: 0, Dst: 1, Size: 1, Start: 8, End: 8}, // empty window
		{Src: 0, Dst: 9, Size: 1, Start: 0, End: 8}, // unknown node
	} {
		if rec := do(t, h, http.MethodPost, "/v1/jobs", bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("bad submit %d: code %d, want 400", i, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte("not json")))
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("malformed body: code %d, want 400", rec2.Code)
	}

	// Too-late submission: the ErrTooLate bugfix maps to 409.
	drainServer(t, s, 20)
	for i := 0; i < 3; i++ { // push the clock past t=3
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	rej = rejectResponse{}
	rec = do(t, h, http.MethodPost, "/v1/jobs",
		submitBody(job.Job{ID: 10, Src: 0, Dst: 1, Size: 1, Start: 0, End: 2}), &rej)
	if rec.Code != http.StatusConflict || rej.State != "rejected" || rej.Error.Code != "too_late" {
		t.Fatalf("too-late submit: code %d resp %+v, want 409 rejected/too_late", rec.Code, rej)
	}
	// The rejection is recorded and visible.
	var st controller.JobStatusJSON
	if rec := do(t, h, http.MethodGet, "/v1/jobs/10", nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("get too-late job: code %d", rec.Code)
	}
	if st.State != string(controller.JobRejected) {
		t.Errorf("too-late job state %q, want rejected", st.State)
	}
}

func TestJobStatusAndScheduleEndpoints(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	s := newTestServer(t, g, Config{})
	h := s.Handler()

	do(t, h, http.MethodPost, "/v1/jobs",
		submitBody(job.Job{ID: 1, Src: 0, Dst: 1, Size: 6, Start: 0, End: 8}), nil)

	var st controller.JobStatusJSON
	do(t, h, http.MethodGet, "/v1/jobs/1", nil, &st)
	if st.State != string(controller.JobPending) {
		t.Fatalf("state before first epoch = %q, want pending", st.State)
	}
	if rec := do(t, h, http.MethodGet, "/v1/jobs/99", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", rec.Code)
	}

	var sched scheduleResponse
	do(t, h, http.MethodGet, "/v1/schedule", nil, &sched)
	if sched.Committed {
		t.Fatal("schedule committed before the first epoch")
	}

	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	do(t, h, http.MethodGet, "/v1/jobs/1", nil, &st)
	if st.State != string(controller.JobActive) {
		t.Fatalf("state after first epoch = %q, want active", st.State)
	}
	do(t, h, http.MethodGet, "/v1/schedule", nil, &sched)
	if !sched.Committed || sched.Start != 0 || sched.End != 1 {
		t.Fatalf("schedule = %+v, want committed period [0, 1)", sched)
	}
	if len(sched.Jobs) != 1 || sched.Jobs[0].JobID != 1 {
		t.Fatalf("schedule jobs = %+v, want job 1", sched.Jobs)
	}
	total := 0.0
	for _, p := range sched.Jobs[0].Paths {
		if len(p.Edges) == 0 {
			t.Errorf("path %d has no edges", p.Path)
		}
		for _, sl := range p.Slices {
			total += sl.Waves * sl.Len
		}
	}
	if total <= 0 {
		t.Error("committed schedule carries no flow")
	}

	var health healthzResponse
	do(t, h, http.MethodGet, "/v1/healthz", nil, &health)
	if health.Status != "ok" || health.Epochs != 1 || health.Durable {
		t.Errorf("healthz = %+v", health)
	}

	var stats statsResponse
	do(t, h, http.MethodGet, "/v1/stats", nil, &stats)
	if len(stats.Epochs) != 1 || stats.Active != 1 {
		t.Errorf("stats = %+v, want 1 epoch and 1 active job", stats)
	}

	// /metrics is mounted on the same listener.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("server_http_requests_total")) {
		t.Errorf("/metrics: code %d, body missing server metrics", rec.Code)
	}
}

func TestLinkEndpoints(t *testing.T) {
	g := netgraph.Ring(4, 2, 10)
	s := newTestServer(t, g, Config{WALDir: t.TempDir()})
	h := s.Handler()

	do(t, h, http.MethodPost, "/v1/jobs",
		submitBody(job.Job{ID: 1, Src: 0, Dst: 1, Size: 6, Start: 0, End: 10}), nil)
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}

	if rec := do(t, h, http.MethodPost, fmt.Sprintf("/v1/links/%d/down", g.NumEdges()), nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown link: code %d, want 404", rec.Code)
	}

	// A body over the 64 KiB cap is refused before the WAL sees it, not
	// applied at the server's clock as if none had been sent.
	seq := s.healthSnapshot().WALSeq
	big := map[string]any{"t": 0.25, "pad": strings.Repeat("x", 70<<10)}
	if rec := do(t, h, http.MethodPost, "/v1/links/0/down", big, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized link body: code %d body %s, want 400", rec.Code, rec.Body.String())
	}
	if got := s.healthSnapshot().WALSeq; got != seq {
		t.Errorf("oversized link body reached the WAL: seq %d -> %d", seq, got)
	}
	if down := s.ctrl.DownLinks(); len(down) != 0 {
		t.Errorf("oversized link body downed links %v", down)
	}

	tm := 0.5
	var lr linkResponse
	rec := do(t, h, http.MethodPost, "/v1/links/0/down", linkRequest{Time: &tm}, &lr)
	if rec.Code != http.StatusOK || len(lr.Down) != 1 || lr.Down[0] != 0 || lr.Time != 0.5 {
		t.Fatalf("link down: code %d resp %+v", rec.Code, lr)
	}

	// Repairing a link that was never down is a no-op (satellite case).
	rec = do(t, h, http.MethodPost, "/v1/links/3/up", nil, &lr)
	if rec.Code != http.StatusOK || len(lr.Down) != 1 {
		t.Fatalf("up on healthy link: code %d resp %+v", rec.Code, lr)
	}

	tm2 := 1.5
	rec = do(t, h, http.MethodPost, "/v1/links/0/up", linkRequest{Time: &tm2}, &lr)
	if rec.Code != http.StatusOK || len(lr.Down) != 0 {
		t.Fatalf("link up: code %d resp %+v", rec.Code, lr)
	}

	// An event dated before one already applied is refused before the WAL
	// sees it.
	seq = s.healthSnapshot().WALSeq
	tm3 := 1.0
	if rec := do(t, h, http.MethodPost, "/v1/links/0/down", linkRequest{Time: &tm3}, nil); rec.Code != http.StatusConflict {
		t.Fatalf("stale link down: code %d body %s, want 409", rec.Code, rec.Body.String())
	}
	if got := s.healthSnapshot().WALSeq; got != seq {
		t.Errorf("stale link down reached the WAL: seq %d -> %d", seq, got)
	}

	drainServer(t, s, 30)
	recs := s.Records()
	if len(recs) != 1 || !recs[0].Completed {
		t.Fatalf("records = %+v, want job 1 completed despite the outage", recs)
	}
}

// TestRouteCountsBeforeTheBodyArrives pins when route counts a request: at
// handler entry. A client that has read a whole response — here 64 KiB, far
// beyond the server's write buffer, while the handler has not yet returned —
// must find the request in server_http_requests_total and in the per-route
// counter, as a /metrics scrape sent right after the read does.
func TestRouteCountsBeforeTheBodyArrives(t *testing.T) {
	s := newTestServer(t, netgraph.Ring(4, 2, 10), Config{})
	const pattern = "/test/route-count"
	const size = 64 << 10
	release := make(chan struct{})
	mux := http.NewServeMux()
	s.route(mux, pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(size))
		w.Write(bytes.Repeat([]byte{'x'}, size))
		w.(http.Flusher).Flush()
		<-release
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	routeCtr := telemetry.Default().CounterWith("server_http_route_requests_total", "", map[string]string{"route": pattern})
	total0, route0 := telRequests.Value(), routeCtr.Value()

	resp, err := http.Get(srv.URL + pattern)
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, err = io.ReadFull(resp.Body, make([]byte, size))
	total, route := telRequests.Value()-total0, routeCtr.Value()-route0
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 || route != 1 {
		t.Fatalf("after the whole body was read: server_http_requests_total moved by %d, the route's counter by %d; want 1 and 1", total, route)
	}
}
