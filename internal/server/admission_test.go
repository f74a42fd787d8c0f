package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wavesched/internal/admission"
	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/store"
)

// admissionServer builds a server with the admission subsystem enabled.
func admissionServer(t *testing.T, acfg admission.Config, cfg Config) (*Server, http.Handler) {
	t.Helper()
	g := netgraph.Line(2, 2, 10)
	cfg.Admission = &acfg
	s := newTestServer(t, g, cfg)
	return s, s.Handler()
}

// TestRejectionEnvelopeWireFormat pins the structured rejection body
// byte-for-byte: the {code, reason, retry_after_s} envelope is part of
// the wire format clients program against.
func TestRejectionEnvelopeWireFormat(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	s := newTestServer(t, g, Config{})
	h := s.Handler()

	if rec := do(t, h, http.MethodPost, "/v1/jobs",
		submitBody(job.Job{ID: 1, Src: 0, Dst: 1, Size: 1, Start: 0, End: 8}), nil); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: code %d", rec.Code)
	}
	rec := do(t, h, http.MethodPost, "/v1/jobs",
		submitBody(job.Job{ID: 1, Src: 0, Dst: 1, Size: 1, Start: 0, End: 8}), nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate submit: code %d, want 409", rec.Code)
	}
	// Fields, their order and their values are the contract; whitespace never was.
	const golden = `{"id":1,"state":"rejected","error":{"code":"duplicate_id","reason":"duplicate job id"}}
`
	if got := rec.Body.String(); got != golden {
		t.Fatalf("duplicate-id envelope drifted from the wire format:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestSubmitDuplicateIDRace is the regression test for the duplicate-ID
// race: with submissions flowing through the intake queue, N concurrent
// POSTs of the same explicit ID must yield exactly one acceptance — the
// ID-set check runs inside the batch drain, under the lock that applies
// the batch, so there is no check-then-act window. Run under -race.
func TestSubmitDuplicateIDRace(t *testing.T) {
	_, h := admissionServer(t, admission.Config{}, Config{})

	const writers = 32
	codes := make([]int, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := strings.NewReader(`{"id": 77, "src": 0, "dst": 1, "size": 1, "start": 0, "end": 8}`)
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()

	accepted, conflicts := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusConflict:
			conflicts++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if accepted != 1 || conflicts != writers-1 {
		t.Fatalf("duplicate race: %d accepted, %d conflicts; want exactly 1 accepted", accepted, conflicts)
	}
}

// TestAdmissionQuotaLifecycle: a tenant capped at one live job is
// refused a second (429 quota_exceeded), and regains the quota once the
// first job's record is finalized.
func TestAdmissionQuotaLifecycle(t *testing.T) {
	s, h := admissionServer(t, admission.Config{
		Tenants: map[string]admission.TenantPolicy{"cms": {MaxJobs: 1}},
	}, Config{})

	first := submitRequest{Src: 0, Dst: 1, Size: 2, Start: 0, End: 4, Tenant: "cms"}
	if rec := do(t, h, http.MethodPost, "/v1/jobs", first, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: code %d body %s", rec.Code, rec.Body.String())
	}
	var rej rejectResponse
	rec := do(t, h, http.MethodPost, "/v1/jobs", first, &rej)
	if rec.Code != http.StatusTooManyRequests || rej.Error.Code != "quota_exceeded" {
		t.Fatalf("over-quota submit: code %d envelope %+v, want 429 quota_exceeded", rec.Code, rej)
	}

	// Other tenants are unaffected (Default has no limits).
	other := first
	other.Tenant = "atlas"
	if rec := do(t, h, http.MethodPost, "/v1/jobs", other, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("other tenant: code %d", rec.Code)
	}

	// The status endpoint shows the live consumption.
	var st admissionResponse
	do(t, h, http.MethodGet, "/v1/admission", nil, &st)
	if !st.Enabled || len(st.Tenants) != 2 || st.Tenants[0].Tenant != "atlas" || st.Tenants[1].Jobs != 1 {
		t.Fatalf("admission status: %+v", st)
	}

	// Completion frees the quota.
	drainServer(t, s, 20)
	late := submitRequest{Src: 0, Dst: 1, Size: 1, Start: s.ctrl.Now() + 1, End: s.ctrl.Now() + 4, Tenant: "cms"}
	if rec := do(t, h, http.MethodPost, "/v1/jobs", late, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("post-completion submit: code %d body %s", rec.Code, rec.Body.String())
	}
}

// TestAdmissionRateLimitRetryAfter: an exhausted token bucket answers
// 429 with the machine-readable back-off in both the envelope and the
// standard Retry-After header.
func TestAdmissionRateLimitRetryAfter(t *testing.T) {
	_, h := admissionServer(t, admission.Config{
		Tenants: map[string]admission.TenantPolicy{"slow": {RatePerSec: 0.001, Burst: 1}},
	}, Config{})

	req := submitRequest{Src: 0, Dst: 1, Size: 1, Start: 0, End: 8, Tenant: "slow"}
	if rec := do(t, h, http.MethodPost, "/v1/jobs", req, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: code %d", rec.Code)
	}
	var rej rejectResponse
	rec := do(t, h, http.MethodPost, "/v1/jobs", req, &rej)
	if rec.Code != http.StatusTooManyRequests || rej.Error.Code != "rate_limited" {
		t.Fatalf("rate-limited submit: code %d envelope %+v", rec.Code, rej)
	}
	if rej.Error.RetryAfterS <= 0 {
		t.Fatalf("retry_after_s not set: %+v", rej.Error)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header %q, want a positive back-off", ra)
	}
}

// TestAdmissionRequireTenant: with RequireTenant set, unconfigured (and
// anonymous) tenants are refused with 403 forbidden_tenant.
func TestAdmissionRequireTenant(t *testing.T) {
	_, h := admissionServer(t, admission.Config{
		RequireTenant: true,
		Tenants:       map[string]admission.TenantPolicy{"cms": {}},
	}, Config{})

	var rej rejectResponse
	rec := do(t, h, http.MethodPost, "/v1/jobs",
		submitRequest{Src: 0, Dst: 1, Size: 1, Start: 0, End: 8}, &rej)
	if rec.Code != http.StatusForbidden || rej.Error.Code != "forbidden_tenant" {
		t.Fatalf("anonymous submit: code %d envelope %+v, want 403 forbidden_tenant", rec.Code, rej)
	}
	if rec := do(t, h, http.MethodPost, "/v1/jobs",
		submitRequest{Src: 0, Dst: 1, Size: 1, Start: 0, End: 8, Tenant: "cms"}, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("configured tenant: code %d", rec.Code)
	}
}

// TestBatchEndpointShedsScavengersFirst: when one intake batch overflows
// a tenant's quota, priority classes fix the shed order — the critical
// submission wins the last quota slot even though the scavenger was
// enqueued first.
func TestBatchEndpointShedsScavengersFirst(t *testing.T) {
	_, h := admissionServer(t, admission.Config{
		Tenants: map[string]admission.TenantPolicy{"cms": {MaxJobs: 1}},
	}, Config{})

	var resp batchSubmitResponse
	rec := do(t, h, http.MethodPost, "/v1/jobs/batch", batchSubmitRequest{Jobs: []submitRequest{
		{Src: 0, Dst: 1, Size: 1, Start: 0, End: 8, Tenant: "cms", Priority: "scavenger"},
		{Src: 0, Dst: 1, Size: 1, Start: 0, End: 8, Tenant: "cms", Priority: "critical"},
	}}, &resp)
	if rec.Code != http.StatusOK || resp.Accepted != 1 {
		t.Fatalf("batch submit: code %d resp %+v, want 200 with 1 accepted", rec.Code, resp)
	}
	if resp.Results[0].State != "rejected" || resp.Results[0].Error.Code != "quota_exceeded" {
		t.Fatalf("scavenger result %+v, want quota_exceeded rejection", resp.Results[0])
	}
	if resp.Results[1].State != "pending" {
		t.Fatalf("critical result %+v, want pending", resp.Results[1])
	}
}

// TestBatchEndpointZeroConfig: a server built with no admission config
// still admits through the intake queue — the batch endpoint accepts,
// and the status endpoint reports the subsystem with no tenant usage.
func TestBatchEndpointZeroConfig(t *testing.T) {
	h := newTestServer(t, netgraph.Line(2, 2, 10), Config{}).Handler()
	var st admissionResponse
	if rec := do(t, h, http.MethodGet, "/v1/admission", nil, &st); rec.Code != http.StatusOK ||
		!st.Enabled || st.Tenants == nil || len(st.Tenants) != 0 {
		t.Fatalf("admission status: code %d body %s", rec.Code, rec.Body.String())
	}
	var resp batchSubmitResponse
	rec := do(t, h, http.MethodPost, "/v1/jobs/batch",
		batchSubmitRequest{Jobs: []submitRequest{{Src: 0, Dst: 1, Size: 1, Start: 0, End: 8}}}, &resp)
	if rec.Code != http.StatusOK || resp.Accepted != 1 || resp.Results[0].State != "pending" {
		t.Fatalf("batch with zero config: code %d resp %+v, want 200 with 1 accepted", rec.Code, resp)
	}
}

// failingWAL refuses every append, as a full disk or a fenced cluster log
// would. Seq is never called here; the nil embedded WAL would panic if it
// were.
type failingWAL struct{ WAL }

func (failingWAL) Append(store.Entry) (store.Entry, error) {
	return store.Entry{}, errors.New("disk full")
}
func (failingWAL) Close() error { return nil }

// TestWALFailureIsServerError: a submission the drain cannot make durable
// is the server's failure, not the client's — 500 on POST /v1/jobs,
// wal_append in a batch result — and nothing reaches the controller.
func TestWALFailureIsServerError(t *testing.T) {
	_, h := admissionServer(t, admission.Config{}, Config{Log: failingWAL{}})
	var rej rejectResponse
	rec := do(t, h, http.MethodPost, "/v1/jobs",
		submitRequest{Src: 0, Dst: 1, Size: 1, Start: 0, End: 8}, &rej)
	if rec.Code != http.StatusInternalServerError || rej.Error.Code != "wal_append" {
		t.Fatalf("submit over a failing WAL: code %d envelope %+v, want 500 wal_append", rec.Code, rej)
	}
	var resp batchSubmitResponse
	do(t, h, http.MethodPost, "/v1/jobs/batch",
		batchSubmitRequest{Jobs: []submitRequest{{Src: 1, Dst: 0, Size: 1, Start: 0, End: 8}}}, &resp)
	if len(resp.Results) != 1 || resp.Results[0].Error == nil || resp.Results[0].Error.Code != "wal_append" {
		t.Fatalf("batch over a failing WAL: %+v, want one wal_append result", resp)
	}
	var list jobListResponse
	do(t, h, http.MethodGet, "/v1/jobs", nil, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("jobs applied despite the failed append: %+v", list.Jobs)
	}
}

// TestAdmissionReplayRestoresQuota: a restart replays the WAL's batch
// entries through the admission policy, so tenant quota accounting (and
// the class registry behind stage-2 weights) survives the restart
// byte-for-byte.
func TestAdmissionReplayRestoresQuota(t *testing.T) {
	dir := t.TempDir()
	acfg := admission.Config{Tenants: map[string]admission.TenantPolicy{"cms": {MaxJobs: 1}}}
	g := netgraph.Line(2, 2, 10)

	cfg := Config{
		WALDir:     dir,
		Controller: controller.Config{Tau: 1, SliceLen: 1, K: 2, Policy: controller.PolicyMaxThroughput},
	}
	cfg.Admission = &acfg
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// A far-future start keeps the job live (pending) across the restart.
	if rec := do(t, h, http.MethodPost, "/v1/jobs",
		submitRequest{Src: 0, Dst: 1, Size: 1, Start: 50, End: 60, Tenant: "cms", Priority: "critical"}, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", rec.Code, rec.Body.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.policy.Class(1); got != admission.ClassCritical {
		t.Fatalf("replayed class %q, want critical", got)
	}
	var rej rejectResponse
	rec := do(t, s2.Handler(), http.MethodPost, "/v1/jobs",
		submitRequest{Src: 0, Dst: 1, Size: 1, Start: 50, End: 60, Tenant: "cms"}, &rej)
	if rec.Code != http.StatusTooManyRequests || rej.Error.Code != "quota_exceeded" {
		t.Fatalf("post-restart submit: code %d envelope %+v, want 429 quota_exceeded (quota not restored)", rec.Code, rej)
	}
}
