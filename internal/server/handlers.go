package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"wavesched/internal/admission"
	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/store"
	"wavesched/internal/telemetry"
	"wavesched/internal/telemetry/telhttp"
)

// Handler returns the daemon's full HTTP surface: the /v1 JSON API plus
// the operational endpoints (/metrics in Prometheus text format and
// /debug/pprof/) on the same listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/jobs", s.handleSubmit)
	s.route(mux, "POST /v1/jobs/batch", s.handleSubmitBatch)
	s.route(mux, "GET /v1/admission", s.handleAdmission)
	s.route(mux, "GET /v1/jobs", s.handleListJobs)
	s.route(mux, "GET /v1/jobs/{id}", s.handleGetJob)
	s.route(mux, "GET /v1/jobs/{id}/explain", s.handleExplainJob)
	s.route(mux, "GET /v1/schedule", s.handleSchedule)
	s.route(mux, "POST /v1/links/{id}/down", s.handleLinkDown)
	s.route(mux, "POST /v1/links/{id}/up", s.handleLinkUp)
	s.route(mux, "GET /v1/healthz", s.handleHealthz)
	s.route(mux, "GET /v1/stats", s.handleStats)
	s.route(mux, "GET /v1/debug/trace/{id}", s.handleTrace)
	s.route(mux, "GET /v1/debug/flightrecorder", s.handleFlightRecorder)

	ops := telhttp.Handler(telemetry.Default())
	mux.Handle("/metrics", ops)
	mux.Handle("/debug/pprof/", ops)
	return mux
}

// route registers a handler with request-count and latency metrics. The
// counters move when the handler is entered: a body larger than the
// server's write buffer reaches the client before the handler returns, and a
// scrape the client sends next must already count the request. The latency
// is observed when the handler returns.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	ctr := telemetry.Default().CounterWith("server_http_route_requests_total",
		"HTTP API requests served, by route.", map[string]string{"route": pattern})
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ctr.Inc()
		telRequests.Inc()
		h(w, r)
		telRequestSeconds.ObserveSince(t0)
	})
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

// redirectWrite routes a state-changing request away from a follower:
// 307 to the current leader (method and body preserved), or 503 when no
// leader is known. Returns true when the request was handled here.
// Reads are always served locally from replicated state.
func (s *Server) redirectWrite(w http.ResponseWriter, r *http.Request) bool {
	cv := s.cfg.Cluster
	if cv == nil || cv.IsLeader() {
		return false
	}
	if url := cv.LeaderURL(); url != "" {
		telRedirects.Inc()
		http.Redirect(w, r, url+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		return true
	}
	writeError(w, http.StatusServiceUnavailable, "no leader elected; retry shortly")
	return true
}

// writeJSON answers with v encoded compactly, newline-terminated, with
// Content-Length, in one write. The body is encoded in full before the status
// line goes out, so a value that cannot be encoded (a non-finite float) is
// answered 500 with an error body instead of a 200 cut off mid-document.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorJSON{Error: "encode: " + err.Error()})
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write means the client is gone
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorJSON{Error: msg})
}

// submitRequest is the POST /v1/jobs body: the paper's 6-tuple with the
// ID and arrival optional (the server assigns the next free ID and
// stamps the arrival with the current virtual time), plus the admission
// metadata — tenant (quota/rate-limit accounting) and priority class.
type submitRequest struct {
	ID       *int     `json:"id"`
	Src      int      `json:"src"`
	Dst      int      `json:"dst"`
	Size     float64  `json:"size"`
	Start    float64  `json:"start"`
	End      float64  `json:"end"`
	Arrival  *float64 `json:"arrival"`
	Tenant   string   `json:"tenant,omitempty"`
	Priority string   `json:"priority,omitempty"`
}

// submitResponse acknowledges an accepted admission request. State is
// "pending" (buffered for the next scheduling instant).
type submitResponse struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// rejectEnvelope is the structured rejection body: a machine-readable
// code, the human-readable reason, and — for rate limits — the back-off
// hint mirrored in the Retry-After header.
type rejectEnvelope struct {
	Code        string  `json:"code"`
	Reason      string  `json:"reason"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// rejectResponse is the body of every rejected submission. Rejection
// codes are part of the wire format:
//
//	too_late         409  scheduling window already unusable
//	duplicate_id     409  job ID already seen (or raced within a batch)
//	rate_limited     429  tenant token bucket empty (Retry-After set)
//	quota_exceeded   429  tenant capacity quota would be breached
//	forbidden_tenant 403  tenant unknown and the server requires one
//	invalid_job      400  the 6-tuple failed validation
//	wal_append       500  the submission could not be made durable
//	shutting_down    503  the server closed before deciding
type rejectResponse struct {
	ID    int            `json:"id,omitempty"`
	State string         `json:"state"`
	Error rejectEnvelope `json:"error"`
}

// writeReject emits the structured rejection envelope, mirroring a
// positive retry hint into the standard Retry-After header.
func writeReject(w http.ResponseWriter, status int, id job.ID, code, reason string, retryAfter float64) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter))))
	}
	writeJSON(w, status, rejectResponse{
		ID: int(id), State: "rejected",
		Error: rejectEnvelope{Code: code, Reason: reason, RetryAfterS: retryAfter},
	})
}

// rejectionFor maps an admission decision error to its HTTP status and
// wire code.
func rejectionFor(err error) (status int, code string) {
	switch {
	case errors.Is(err, controller.ErrTooLate):
		return http.StatusConflict, "too_late"
	case errors.Is(err, admission.ErrDuplicateID):
		return http.StatusConflict, "duplicate_id"
	case errors.Is(err, admission.ErrRateLimited):
		return http.StatusTooManyRequests, "rate_limited"
	case errors.Is(err, admission.ErrQuotaExceeded):
		return http.StatusTooManyRequests, "quota_exceeded"
	case errors.Is(err, admission.ErrUnknownTenant):
		return http.StatusForbidden, "forbidden_tenant"
	case errors.Is(err, errWALAppend):
		return http.StatusInternalServerError, "wal_append"
	case errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable, "shutting_down"
	default:
		return http.StatusBadRequest, "invalid_job"
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.redirectWrite(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode job: "+err.Error())
		return
	}
	s.submitQueued(w, r, req)
}

// newSubmission runs the pre-WAL admission gates (priority-class parse,
// tenant check, rate limit — all decisions that must never reach the
// durable log) and returns the survivor, ready for the intake queue. On
// refusal it returns the rejection triple instead of a submission.
func (s *Server) newSubmission(req submitRequest) (*admission.Submission, int, rejectEnvelope) {
	class, err := admission.ParseClass(req.Priority)
	if err != nil {
		return nil, http.StatusBadRequest, rejectEnvelope{Code: "invalid_priority", Reason: err.Error()}
	}
	if err := s.policy.CheckTenant(req.Tenant); err != nil {
		return nil, http.StatusForbidden, rejectEnvelope{Code: "forbidden_tenant", Reason: err.Error()}
	}
	if retry, err := s.policy.AllowRate(req.Tenant); err != nil {
		return nil, http.StatusTooManyRequests, rejectEnvelope{
			Code: "rate_limited", Reason: err.Error(), RetryAfterS: retry,
		}
	}
	sub := &admission.Submission{
		Job: job.Job{
			Src: netgraph.NodeID(req.Src), Dst: netgraph.NodeID(req.Dst),
			Size: req.Size, Start: req.Start, End: req.End,
		},
		Tenant:  req.Tenant,
		Class:   class,
		Arrival: req.Arrival,
	}
	if req.ID != nil {
		sub.Job.ID = job.ID(*req.ID)
	} else {
		sub.AssignID = true
	}
	return sub, 0, rejectEnvelope{}
}

// submitQueued is the submit path: gate, enqueue, and block until the
// batch drain decides — the handler goroutine never takes the server's
// write lock, so thousands of concurrent submitters cost lock-free
// enqueues plus one drain per coalesced batch.
func (s *Server) submitQueued(w http.ResponseWriter, r *http.Request, req submitRequest) {
	sub, status, env := s.newSubmission(req)
	if sub == nil {
		if env.RetryAfterS > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(env.RetryAfterS))))
		}
		id := 0
		if req.ID != nil {
			id = *req.ID
		}
		writeJSON(w, status, rejectResponse{ID: id, State: "rejected", Error: env})
		return
	}
	s.intake.Enqueue(sub)
	select {
	case d := <-sub.Done():
		s.writeDecision(w, d)
	case <-s.shutdown:
		s.writeDecision(w, admission.Decision{ID: sub.Job.ID, Err: errShuttingDown})
	case <-r.Context().Done():
		// Client gone; the drain still decides the submission (it may
		// already be durable), there is just no one left to tell.
	}
}

// writeDecision renders one intake decision.
func (s *Server) writeDecision(w http.ResponseWriter, d admission.Decision) {
	if d.Err != nil {
		status, code := rejectionFor(d.Err)
		writeReject(w, status, d.ID, code, d.Err.Error(), d.RetryAfter)
		return
	}
	if d.Degraded {
		writeJSON(w, http.StatusServiceUnavailable, submitResponse{
			ID: int(d.ID), State: "pending",
			Error: "accepted on this node but replication quorum not reached; durability is degraded",
		})
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: int(d.ID), State: "pending"})
}

// batchSubmitRequest is the POST /v1/jobs/batch body.
type batchSubmitRequest struct {
	Jobs []submitRequest `json:"jobs"`
}

// batchResult is one job's outcome inside a batch response.
type batchResult struct {
	ID    int             `json:"id"`
	State string          `json:"state"`
	Error *rejectEnvelope `json:"error,omitempty"`
}

// batchSubmitResponse mirrors the request order: Results[i] answers
// Jobs[i]. Accepted counts the admissions.
type batchSubmitResponse struct {
	Accepted int           `json:"accepted"`
	Results  []batchResult `json:"results"`
}

// handleSubmitBatch admits many jobs in one request. The whole body is
// enqueued before any decision is awaited, so the intake drain coalesces
// the batch under a single WAL fsync.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.redirectWrite(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var req batchSubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode batch: "+err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	subs := make([]*admission.Submission, len(req.Jobs))
	var survivors []*admission.Submission
	resp := batchSubmitResponse{Results: make([]batchResult, len(req.Jobs))}
	for i, jr := range req.Jobs {
		sub, _, env := s.newSubmission(jr)
		if sub == nil {
			id := 0
			if jr.ID != nil {
				id = *jr.ID
			}
			envCopy := env
			resp.Results[i] = batchResult{ID: id, State: "rejected", Error: &envCopy}
			continue
		}
		subs[i] = sub
		survivors = append(survivors, sub)
	}
	// One request is one unit of intake, so the pump never drains part of
	// it: priority shedding sees the whole batch at once.
	s.intake.EnqueueAll(survivors)
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		select {
		case d := <-sub.Done():
			if d.Err != nil {
				_, code := rejectionFor(d.Err)
				resp.Results[i] = batchResult{
					ID: int(d.ID), State: "rejected",
					Error: &rejectEnvelope{Code: code, Reason: d.Err.Error(), RetryAfterS: d.RetryAfter},
				}
			} else {
				resp.Accepted++
				resp.Results[i] = batchResult{ID: int(d.ID), State: "pending"}
			}
		case <-s.shutdown:
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// admissionResponse is the GET /v1/admission body: live intake depth and
// per-tenant quota consumption. Enabled is always true; it stays on the
// wire for clients that read it.
type admissionResponse struct {
	Enabled bool                    `json:"enabled"`
	Depth   int                     `json:"depth"`
	Tenants []admission.TenantUsage `json:"tenants"`
}

func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) {
	resp := admissionResponse{Enabled: true, Depth: s.intake.Depth(), Tenants: s.policy.Usage()}
	sort.Slice(resp.Tenants, func(a, b int) bool {
		return resp.Tenants[a].Tenant < resp.Tenants[b].Tenant
	})
	writeJSON(w, http.StatusOK, resp)
}

// jobListResponse is the GET /v1/jobs body.
type jobListResponse struct {
	Jobs []controller.JobStatusJSON `json:"jobs"`
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := s.ctrl.JobStatuses()
	s.mu.Unlock()
	out := controller.JobStatusesJSON(statuses)
	sort.SliceStable(out, func(a, b int) bool { return out[a].JobID < out[b].JobID })
	writeJSON(w, http.StatusOK, jobListResponse{Jobs: out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	statuses := s.ctrl.JobStatuses()
	s.mu.Unlock()
	for _, st := range statuses {
		if int(st.Job.ID) == id {
			writeJSON(w, http.StatusOK, st.JSON())
			return
		}
	}
	writeError(w, http.StatusNotFound, "unknown job")
}

func (s *Server) handleExplainJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	exp, ok := s.ctrl.Explain(job.ID(id))
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, exp.JSON())
}

// traceResponse is the GET /v1/debug/trace/{id} body: everything the
// scheduler decided under one trace ID (= epoch index) — the epoch's
// summary stat, the audit events it emitted across all jobs, and the
// flight-recorder frame when the epoch is still inside the ring.
type traceResponse struct {
	Trace  int64                       `json:"trace"`
	Epoch  *controller.EpochStatJSON   `json:"epoch,omitempty"`
	Events []controller.AuditEventJSON `json:"events"`
	Frame  *controller.EpochFrame      `json:"frame,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	trace, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id")
		return
	}
	writeJSON(w, http.StatusOK, s.traceSnapshot(trace))
}

// traceSnapshot builds the trace response under the server lock. Like every
// read handler, handleTrace encodes the snapshot, and writes it to the
// socket, only after the lock is released: a client that stops reading its
// body mid-response must stall its own connection, not Tick and every other
// request.
func (s *Server) traceSnapshot(trace int64) traceResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := traceResponse{Trace: trace}
	resp.Events = controller.AuditEventsJSON(s.ctrl.AuditByTrace(trace))
	if stats := s.ctrl.EpochStats(); trace >= 1 && trace <= int64(len(stats)) {
		st := stats[trace-1].JSON()
		resp.Epoch = &st
	}
	if fr := s.cfg.Controller.FlightRecorder; fr != nil {
		for _, f := range fr.Frames() {
			if ef, ok := f.(controller.EpochFrame); ok && ef.Trace == trace {
				frame := ef
				resp.Frame = &frame
			}
		}
	}
	return resp
}

// flightResponse is the GET /v1/debug/flightrecorder body: the retained
// per-epoch solve frames, oldest first.
type flightResponse struct {
	Enabled bool  `json:"enabled"`
	Frames  []any `json:"frames"`
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.flightSnapshot())
}

func (s *Server) flightSnapshot() flightResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := flightResponse{Frames: []any{}}
	if fr := s.cfg.Controller.FlightRecorder; fr != nil {
		resp.Enabled = true
		if fs := fr.Frames(); fs != nil {
			resp.Frames = fs
		}
	}
	return resp
}

// scheduleSlice is one slice of committed bandwidth on one path.
type scheduleSlice struct {
	Start float64 `json:"t"`
	Len   float64 `json:"len"`
	Waves float64 `json:"waves"`
}

// schedulePath is one path's committed assignment for one job.
type schedulePath struct {
	Path   int             `json:"path"`
	Edges  []int           `json:"edges"`
	Slices []scheduleSlice `json:"slices"`
}

// scheduleJob is one job's committed assignment.
type scheduleJob struct {
	JobID int            `json:"job_id"`
	Paths []schedulePath `json:"paths"`
}

// scheduleResponse is the GET /v1/schedule body: the integer assignment
// currently in force, nonzero entries only.
type scheduleResponse struct {
	Committed bool          `json:"committed"`
	Start     float64       `json:"start,omitempty"`
	End       float64       `json:"end,omitempty"`
	Jobs      []scheduleJob `json:"jobs"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.scheduleSnapshot())
}

// scheduleSnapshot copies the committed assignment's nonzero entries out
// under the server lock. A NaN or -Inf wave count is copied too, not dropped
// with the entries at or below zero, so that the encode refuses the body.
func (s *Server) scheduleSnapshot() scheduleResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	plan, start, end, ok := s.ctrl.CommittedSchedule()
	resp := scheduleResponse{Committed: ok, Jobs: []scheduleJob{}}
	if ok {
		resp.Start, resp.End = start, end
		grid := plan.Inst.Grid
		for k := range plan.X {
			sj := scheduleJob{JobID: int(plan.Inst.Jobs[k].ID)}
			for p := range plan.X[k] {
				var slices []scheduleSlice
				for j, v := range plan.X[k][p] {
					if v > 0 || math.IsNaN(v) || math.IsInf(v, -1) {
						slices = append(slices, scheduleSlice{
							Start: grid.Start(j), Len: grid.Len(j), Waves: v,
						})
					}
				}
				if len(slices) == 0 {
					continue
				}
				edges := make([]int, 0, len(plan.Inst.JobPaths[k][p].Edges))
				for _, e := range plan.Inst.JobPaths[k][p].Edges {
					edges = append(edges, int(e))
				}
				sj.Paths = append(sj.Paths, schedulePath{Path: p, Edges: edges, Slices: slices})
			}
			if len(sj.Paths) > 0 {
				resp.Jobs = append(resp.Jobs, sj)
			}
		}
	}
	return resp
}

// linkRequest optionally pins the virtual event time of a link
// transition; omitted, the server stamps the current virtual time.
type linkRequest struct {
	Time *float64 `json:"t"`
}

// linkResponse reports the resulting down set.
type linkResponse struct {
	Edge int     `json:"edge"`
	Time float64 `json:"t"`
	Down []int   `json:"down"`
}

func (s *Server) handleLinkDown(w http.ResponseWriter, r *http.Request) {
	s.handleLinkEvent(w, r, store.EntryLinkDown)
}

func (s *Server) handleLinkUp(w http.ResponseWriter, r *http.Request) {
	s.handleLinkEvent(w, r, store.EntryLinkUp)
}

func (s *Server) handleLinkEvent(w http.ResponseWriter, r *http.Request, kind store.EntryType) {
	if s.redirectWrite(w, r) {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad link id")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var req linkRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decode body: "+err.Error())
			return
		}
	}

	resp, status, msg := s.applyLinkEvent(id, kind, req.Time)
	if msg != "" {
		writeError(w, status, msg)
		return
	}
	writeJSON(w, status, resp)
}

// applyLinkEvent logs and applies one link transition under the server lock
// and returns what to answer: the resulting down set, or an error status with
// its message.
func (s *Server) applyLinkEvent(id int, kind store.EntryType, at *float64) (linkResponse, int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return linkResponse{}, http.StatusServiceUnavailable, "server is shutting down"
	}
	if id < 0 || id >= s.g.NumEdges() {
		return linkResponse{}, http.StatusNotFound, "unknown link"
	}
	t := s.virtualNow()
	if at != nil {
		t = *at
	}
	// Refuse before logging, so no WAL holds an event the controller
	// would refuse on replay.
	if err := s.ctrl.CheckLinkEvent(netgraph.EdgeID(id), t); err != nil {
		return linkResponse{}, http.StatusConflict, err.Error()
	}
	if err := s.logEvent(store.Entry{Type: kind, Time: t, Edge: id}); err != nil && !errors.Is(err, ErrNoQuorum) {
		return linkResponse{}, http.StatusInternalServerError, "wal append: " + err.Error()
	}
	var err error
	if kind == store.EntryLinkDown {
		err = s.ctrl.LinkDown(netgraph.EdgeID(id), t)
	} else {
		err = s.ctrl.LinkUp(netgraph.EdgeID(id), t)
	}
	if err != nil {
		return linkResponse{}, http.StatusInternalServerError, err.Error()
	}
	s.releaseFinishedLocked() // disruptions may have finalized records
	down := make([]int, 0)
	for _, e := range s.ctrl.DownLinks() {
		down = append(down, int(e))
	}
	return linkResponse{Edge: id, Time: t, Down: down}, http.StatusOK, ""
}

// healthzResponse is the GET /v1/healthz body. Role/Node/Leader are
// present only in cluster mode: followers advertise where writes go,
// and orchestration uses Role to find the leader.
type healthzResponse struct {
	Status     string  `json:"status"`
	Epochs     int     `json:"epochs"`
	VirtualNow float64 `json:"virtual_now"`
	WALSeq     uint64  `json:"wal_seq"`
	Durable    bool    `json:"durable"`
	Role       string  `json:"role,omitempty"`
	Node       string  `json:"node,omitempty"`
	Leader     string  `json:"leader_url,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthSnapshot())
}

func (s *Server) healthSnapshot() healthzResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := healthzResponse{
		Status: "ok", Epochs: s.ctrl.Epochs, VirtualNow: s.virtualNow(),
		Durable: s.wal != nil,
	}
	if s.closed {
		resp.Status = "draining"
	}
	if s.wal != nil {
		resp.WALSeq = s.wal.Seq()
	}
	if cv := s.cfg.Cluster; cv != nil {
		resp.Node = cv.NodeID()
		if cv.IsLeader() {
			resp.Role = "leader"
		} else {
			resp.Role = "follower"
		}
		resp.Leader = cv.LeaderURL()
	}
	return resp
}

// statsResponse is the GET /v1/stats body: per-epoch history plus the
// aggregate summary as of the last settlement.
type statsResponse struct {
	Epochs      []controller.EpochStatJSON  `json:"epochs"`
	Summary     controller.SummaryJSON      `json:"summary"`
	Disruptions []controller.DisruptionJSON `json:"disruptions"`
	Pending     int                         `json:"pending"`
	Active      int                         `json:"active"`
	DownLinks   []int                       `json:"down_links"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

func (s *Server) statsSnapshot() statsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	down := make([]int, 0)
	for _, e := range s.ctrl.DownLinks() {
		down = append(down, int(e))
	}
	return statsResponse{
		Epochs:      controller.EpochStatsJSON(s.ctrl.EpochStats()),
		Summary:     controller.Summarize(s.ctrl.CurrentRecords()).JSON(),
		Disruptions: controller.DisruptionsJSON(s.ctrl.Disruptions()),
		Pending:     s.ctrl.PendingCount(),
		Active:      s.ctrl.ActiveCount(),
		DownLinks:   down,
	}
}
