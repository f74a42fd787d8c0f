package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
)

// TestScheduleReadersRaceTick: readers of /v1/schedule racing epochs each get
// a whole, decodable body. Run under -race.
func TestScheduleReadersRaceTick(t *testing.T) {
	s := newTestServer(t, netgraph.Line(2, 4, 10), Config{})
	h := s.Handler()
	for k := 1; k <= 4; k++ {
		do(t, h, http.MethodPost, "/v1/jobs",
			submitBody(job.Job{ID: job.ID(k), Src: 0, Dst: 1, Size: 20, Start: 0, End: 40}), nil)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schedule", nil))
				var doc scheduleResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusOK || err != nil {
					t.Errorf("a read racing Tick: code %d, decode %v: %s", rec.Code, err, rec.Body)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if err := s.Tick(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestEveryBodyIsCompactWithContentLength walks the /v1 surface — successes,
// rejections, errors — and holds every response to one format: JSON, compact,
// newline-terminated, with a Content-Length equal to the body's length.
func TestEveryBodyIsCompactWithContentLength(t *testing.T) {
	g := netgraph.Ring(4, 2, 10)
	s := newTestServer(t, g, Config{FlightFrames: 4, FlightDir: t.TempDir()})
	h := s.Handler()
	send := func(method, path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		b := rec.Body.Bytes()
		var compact bytes.Buffer
		if err := json.Compact(&compact, b); err != nil {
			t.Fatalf("%s %s: %d, not JSON: %v: %q", method, path, rec.Code, err, b)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(b)) {
			t.Errorf("%s %s: Content-Length %q for a %d-byte body", method, path, cl, len(b))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", method, path, ct)
		}
		if compact.String()+"\n" != string(b) {
			t.Errorf("%s %s: the body is not compact and newline-terminated: %q", method, path, b)
		}
	}
	const one = `{"id": 1, "src": 0, "dst": 2, "size": 4, "start": 0, "end": 10}`
	send(http.MethodGet, "/v1/schedule", "")
	send(http.MethodPost, "/v1/jobs", one)
	send(http.MethodPost, "/v1/jobs", one) // 409 duplicate_id
	send(http.MethodPost, "/v1/jobs", "not json")
	send(http.MethodPost, "/v1/jobs/batch", `{"jobs": [{"src": 1, "dst": 3, "size": 2, "start": 0, "end": 10}]}`)
	send(http.MethodPost, "/v1/jobs/batch", `{"jobs": []}`)
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/v1/schedule", "/v1/schedule", "/v1/admission", "/v1/jobs", "/v1/jobs/1", "/v1/jobs/99",
		"/v1/jobs/x", "/v1/jobs/1/explain", "/v1/healthz", "/v1/stats", "/v1/debug/trace/1",
		"/v1/debug/trace/x", "/v1/debug/flightrecorder",
	} {
		send(http.MethodGet, path, "")
	}
	send(http.MethodPost, "/v1/links/0/down", `{"t": 0.5}`)
	send(http.MethodPost, "/v1/links/0/up", "")
	send(http.MethodPost, "/v1/links/99/down", "")
}

// TestUnencodableBodyIsServerError: a body that cannot be encoded — a NaN in
// any response, or a non-finite wave count in the schedule, NaN and -Inf
// included, which a filter on positive entries would silently drop — is
// answered 500 with the encoder's error, never 200 with a body cut off or
// short of an entry.
func TestUnencodableBodyIsServerError(t *testing.T) {
	check := func(what, value string, rec *httptest.ResponseRecorder) {
		t.Helper()
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError ||
			!strings.HasPrefix(e.Error, "encode: ") || !strings.Contains(e.Error, value) {
			t.Fatalf("%s: code %d body %q, want 500 with an encode error", what, rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", what, cl, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct {
		Waves float64 `json:"waves"`
	}{math.NaN()})
	check("writeJSON", "NaN", rec)

	s := newTestServer(t, netgraph.Line(2, 2, 10), Config{})
	h := s.Handler()
	do(t, h, http.MethodPost, "/v1/jobs", submitBody(job.Job{ID: 1, Src: 0, Dst: 1, Size: 4, Start: 0, End: 8}), nil)
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	plan, _, _, _ := s.ctrl.CommittedSchedule()
	x := plan.X[0][0]
	saved := x[len(x)-1]
	s.mu.Unlock()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s.mu.Lock()
		x[len(x)-1] = bad
		s.mu.Unlock()
		check("/v1/schedule", strconv.FormatFloat(bad, 'g', -1, 64), do(t, h, http.MethodGet, "/v1/schedule", nil, nil))
	}
	s.mu.Lock()
	x[len(x)-1] = saved
	s.mu.Unlock()
}
