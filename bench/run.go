package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"wavesched/internal/admission"
	"wavesched/internal/controller"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/server"
	"wavesched/internal/telemetry"
)

// stormClients is the number of closed-loop load-generating goroutines of
// the storm phases — nproc on the 2-core reference machine, never more.
// Epoch workloads submit from one client: the controller plans jobs in
// admission order, so two racing submitters would make the LP's column
// order — and with it every pivot count — depend on goroutine scheduling
// instead of the seed.
const stormClients = 2

// runOpts selects one pass over one workload.
type runOpts struct {
	spec    spec
	seed    int64
	traced  bool // thread a tracer through the daemon and sample the layers
	noStorm bool // epochs only: the reference pass of a traced run
	// timingOnly stops after the last measured epoch — no drain, storm, final
	// accounting or restart: one of the repeated passes a run takes its
	// timings over.
	timingOnly bool
	workdir    string // parent of the run's WAL directory
}

// epochSample is the harness-side view of one measured epoch.
type epochSample struct {
	epoch              int     // 0-based tick index
	tickStart, tickEnd float64 // seconds since the run origin
	readEnd            float64
	cpuS               float64
	pre, post          []jobStatus // /v1/jobs around the tick, sampled epochs only
	down               []int       // links down while the epoch was planned
	mallocs            uint64
}

// pass is everything one pass measured.
type pass struct {
	opts   runOpts
	g      *netgraph.Graph
	origin time.Time
	ops

	setupS float64
	// Submit-path samples: from the storm where the workload has one,
	// else from the measured epochs' own submissions.
	ackMs        []float64 // single-submit POST→202 latencies
	submitWallS  float64   // wall the accepted jobs took (storm: at median chunk rates)
	submitted    int       // jobs accepted
	epochs       []epochSample
	schedReadMs  []float64
	linkDownS    []float64 // POST …/down → 200
	linkEvents   []string  // "down 17@5", in order
	batchHTTPS   float64   // Σ client-observed batch round trips (storm phase B)
	recoverS     float64   // reopen over the WAL (intake-storm)
	openReplayS  float64   // store.Open alone on the same WAL
	queueOpsPerS float64

	stats     []controller.EpochStatJSON
	records   []controller.Record
	epochJobs []submitBody

	// Traced passes only.
	tickDelta samples // registry movement inside measured ticks
	linkDelta samples // registry movement inside link events
	runDelta  samples // registry movement over the measured window
	gauges    samples // last scrape, for gauges
	spans     []spanRec
	traceRaw  []byte
	frames    []controller.EpochFrame // measured epochs' flight frames
	heapPeak  uint64
	gcPauseNs uint64
}

// ops counts operations — submits, ticks, reads, link events, restarts,
// verifier checks — and the ones that failed. Storm clients keep their own
// and merge them in when they finish.
type ops struct {
	attempted, failed int
	failures          []string // the first few, for the report
}

func (o *ops) op(err error) bool {
	o.attempted++
	if err != nil {
		o.fail(err.Error())
		return false
	}
	return true
}

func (o *ops) fail(msg string) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, msg)
	}
}

// check counts one verifier run and every violation it found.
func (o *ops) check(violations []string) {
	o.attempted++
	for _, v := range violations {
		o.fail(v)
	}
}

func (o *ops) merge(q ops) {
	o.attempted += q.attempted
	o.failed += q.failed
	for _, f := range q.failures {
		if len(o.failures) < 20 {
			o.failures = append(o.failures, f)
		}
	}
}

// since returns seconds on the pass clock.
func (p *pass) since() float64 { return time.Since(p.origin).Seconds() }

// serverConfig is `wavesched serve`'s flag defaults plus the carry
// options ROADMAP names as the shipped path.
func serverConfig(s spec, walDir string, tracer *telemetry.Tracer) server.Config {
	quota := admission.TenantPolicy{MaxJobs: 1 << 30, MaxDemand: 1e18} // set, never hit
	return server.Config{
		Controller: controller.Config{
			Tau: tau, SliceLen: sliceLen, K: kPaths, Alpha: alpha, BMax: bMax,
			Policy: s.Policy, ColumnGen: s.ColumnGen,
			Solver:    lp.Options{Pricing: lp.PartialDantzig},
			WarmStart: true, Incremental: true,
			Tracer: tracer,
		},
		Admission: &admission.Config{Tenants: map[string]admission.TenantPolicy{
			"t0": quota, "t1": quota, "t2": quota, "t3": quota,
		}},
		Period:        0,
		WALDir:        walDir,
		SnapshotEvery: 1024,
		FlightFrames:  64,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
	}
}

// daemon is one in-process server behind a loopback HTTP listener.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(g *netgraph.Graph, cfg server.Config) (*daemon, error) {
	srv, err := server.New(g, cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, ts: ts, client: ts.Client()}, nil
}

func (d *daemon) stop() error {
	d.ts.Close()
	return d.srv.Close()
}

// expect sends one request and returns the body, or an error unless the
// status is the wanted one.
func (d *daemon) expect(want int, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, out)
	}
	return out, nil
}

func (d *daemon) getJSON(path string, v any) error {
	out, err := d.expect(http.StatusOK, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, v)
}

// probe is one sample of the process around a traced measurement: the
// registry, the heap, and user+system CPU time so far.
type probe struct {
	registry samples
	mem      runtime.MemStats
	cpuS     float64
}

func takeProbe() probe {
	pr := probe{registry: scrape()}
	runtime.ReadMemStats(&pr.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		pr.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	return pr
}

// runPass executes one workload once and returns what it measured.
func runPass(o runOpts) (*pass, error) {
	p := &pass{opts: o, origin: time.Now(),
		tickDelta: samples{}, linkDelta: samples{}, runDelta: samples{}}
	s := o.spec
	totalEpochs := warmupEpochs + s.Epochs

	// Set-up: topology, trace, server.New on an empty WAL, and the warm-up
	// epochs that fill the active set.
	var (
		sink   bytes.Buffer
		tracer *telemetry.Tracer
	)
	if o.traced {
		tracer = telemetry.NewTracer(&sink)
	}
	walDir, err := os.MkdirTemp(o.workdir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	t0 := time.Now()
	if p.g, err = buildGraph(s); err != nil {
		return nil, err
	}
	tr, err := genTrace(s, o.seed, totalEpochs)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(p.g, serverConfig(s, walDir, tracer))
	if err != nil {
		return nil, err
	}
	loop := newEpochLoop(p, d, tr)
	for loop.e < warmupEpochs {
		loop.step()
	}
	p.setupS = time.Since(t0).Seconds()
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	for _, ep := range tr.Epochs {
		p.epochJobs = append(p.epochJobs, ep...)
	}

	// Measured epochs, then tick without arrivals until every job has a
	// final record.
	for loop.e < totalEpochs {
		loop.step()
	}
	if o.timingOnly {
		stopped = true
		p.op(d.stop())
		return p, nil
	}
	for !p.idle(d) && loop.e < totalEpochs+64 {
		loop.step()
	}
	if s.StormSingles > 0 && !o.noStorm {
		p.runStorm(d, tr)
	}

	// Final accounting, then shutdown.
	var stats struct {
		Epochs []controller.EpochStatJSON `json:"epochs"`
	}
	if p.op(d.getJSON("/v1/stats", &stats)) {
		for _, e := range stats.Epochs {
			if e.Degraded {
				p.fail(fmt.Sprintf("epoch at t=%g degraded to tier %q", e.Time, e.Tier))
			}
		}
		p.stats = stats.Epochs
	}
	p.records = d.srv.Records()
	p.check(verifyRecords(p.records, p.epochJobs))
	stopped = true
	p.op(d.stop())

	if s.Restart && !o.noStorm {
		p.restart(walDir, tr)
	}
	if o.traced {
		if err := tracer.Flush(); err != nil {
			return nil, err
		}
		p.traceRaw = sink.Bytes()
		spans, err := parseSpans(p.traceRaw, p.origin)
		if err != nil {
			return nil, err
		}
		p.spans = spans
		p.queueOpsPerS = queueThroughput()
	}
	return p, nil
}

// submit POSTs one job and returns the ack latency in milliseconds.
func (p *pass) submit(d *daemon, b submitBody) float64 {
	body, _ := json.Marshal(b)
	t0 := time.Now()
	_, err := d.expect(http.StatusAccepted, http.MethodPost, "/v1/jobs", body)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	p.op(err)
	return ms
}

// epochLoop carries the epoch cycle's state from one tick to the next.
type epochLoop struct {
	p  *pass
	d  *daemon
	tr *trace

	e         int             // next tick, 0-based
	down      map[int]bool    // links the harness has failed
	downed    []int           // downed[e] is the edge failed after tick e, -1 for none
	endBefore map[int]float64 // effective ends going into the next tick
	window    probe           // traced passes: the start of the measured window
}

func newEpochLoop(p *pass, d *daemon, tr *trace) *epochLoop {
	return &epochLoop{p: p, d: d, tr: tr, down: make(map[int]bool), endBefore: make(map[int]float64)}
}

// step runs one epoch: submit its arrivals, tick, read and verify the
// committed schedule, inject the link events.
func (l *epochLoop) step() {
	p, d, e := l.p, l.d, l.e
	l.e++
	s := p.opts.spec
	arriving := e < len(l.tr.Epochs)
	measured := arriving && e >= warmupEpochs
	probing := p.opts.traced && measured
	if probing && e == warmupEpochs {
		l.window = takeProbe()
	}

	if arriving {
		t0 := time.Now()
		for _, b := range l.tr.Epochs[e] {
			ms := p.submit(d, b)
			if measured && s.StormSingles == 0 {
				p.ackMs = append(p.ackMs, ms)
			}
		}
		if measured && s.StormSingles == 0 {
			p.submitWallS += time.Since(t0).Seconds()
			p.submitted += len(l.tr.Epochs[e])
		}
	}

	sample := epochSample{epoch: e}
	sampled := probing && (e-warmupEpochs)%replayStride(s.Epochs) == 0
	if sampled {
		var pre jobsDoc
		if p.op(d.getJSON("/v1/jobs", &pre)) {
			sample.pre = pre.Jobs
		}
		for edge := range l.down {
			sample.down = append(sample.down, edge)
		}
		sort.Ints(sample.down)
	}
	var before probe
	if probing {
		before = takeProbe()
	}

	sample.tickStart = p.since()
	tickErr := d.srv.Tick()
	sample.tickEnd = p.since()
	var doc scheduleDoc
	readErr := d.getJSON("/v1/schedule", &doc)
	sample.readEnd = p.since()
	p.op(tickErr)
	p.op(readErr)

	if probing {
		after := takeProbe()
		p.tickDelta.add(before.registry, after.registry)
		sample.cpuS = after.cpuS - before.cpuS
		sample.mallocs = after.mem.Mallocs - before.mem.Mallocs
		if after.mem.HeapAlloc > p.heapPeak {
			p.heapPeak = after.mem.HeapAlloc
		}
		if fs := d.srv.FlightFrames(); len(fs) > 0 {
			if f, ok := fs[len(fs)-1].(controller.EpochFrame); ok {
				p.frames = append(p.frames, f)
			}
		}
	}
	ret := s.Policy == controller.PolicyRET
	var jobs jobsDoc
	if p.op(d.getJSON("/v1/jobs", &jobs)) && readErr == nil {
		p.check(verifySchedule(p.g, &doc, jobs.Jobs, l.down, ret, l.endBefore))
		if sampled {
			sample.post = jobs.Jobs
		}
		for _, j := range jobs.Jobs {
			l.endBefore[j.JobID] = j.EffectiveEnd
		}
	}
	if measured {
		p.schedReadMs = append(p.schedReadMs, (sample.readEnd-sample.tickEnd)*1e3)
		p.epochs = append(p.epochs, sample)
	}

	if s.Faults && arriving {
		l.downed = append(l.downed, -1)
		if readErr == nil && doc.Committed {
			l.injectFaults(&doc, probing, measured)
		}
	}

	if p.opts.traced && e == len(l.tr.Epochs)-1 {
		last := takeProbe()
		p.runDelta.add(l.window.registry, last.registry)
		p.gauges = last.registry
		p.gcPauseNs = last.mem.PauseTotalNs - l.window.mem.PauseTotalNs
	}
}

// injectFaults repairs the edge failed three epochs ago, fails the busiest
// edge of the period just committed — both at mid-period — and verifies the
// re-planned remainder.
func (l *epochLoop) injectFaults(doc *scheduleDoc, probing, measured bool) {
	p, d, e := l.p, l.d, l.e-1
	mid := doc.Start + tau/2
	at, _ := json.Marshal(map[string]float64{"t": mid})
	var before samples
	if probing {
		before = scrape()
	}
	if e >= 3 && l.downed[e-3] >= 0 {
		up := l.downed[e-3]
		_, err := d.expect(http.StatusOK, http.MethodPost, fmt.Sprintf("/v1/links/%d/up", up), at)
		p.op(err)
		delete(l.down, up)
		p.linkEvents = append(p.linkEvents, fmt.Sprintf("up %d@%g", up, mid))
	}
	if edge := busiestEdge(doc, l.down); edge >= 0 {
		t0 := time.Now()
		_, err := d.expect(http.StatusOK, http.MethodPost, fmt.Sprintf("/v1/links/%d/down", edge), at)
		if measured {
			p.linkDownS = append(p.linkDownS, time.Since(t0).Seconds())
		}
		p.op(err)
		l.downed[e] = edge
		l.down[edge] = true
		p.linkEvents = append(p.linkEvents, fmt.Sprintf("down %d@%g", edge, mid))
	}
	if probing {
		p.linkDelta.add(before, scrape())
	}
	var redo scheduleDoc
	var after jobsDoc
	if p.op(d.getJSON("/v1/schedule", &redo)) && p.op(d.getJSON("/v1/jobs", &after)) {
		ret := p.opts.spec.Policy == controller.PolicyRET
		p.check(verifySchedule(p.g, &redo, after.Jobs, l.down, ret, l.endBefore))
	}
}

// idle reports whether every submitted job has left the system, as
// /v1/stats sees it.
func (p *pass) idle(d *daemon) bool {
	var st struct {
		Pending int `json:"pending"`
		Active  int `json:"active"`
	}
	return !p.op(d.getJSON("/v1/stats", &st)) || st.Pending+st.Active == 0
}

// replayStride is the layer replay's sampling stride: every 4th measured
// epoch, widened on long runs so a run replays at most 8 epochs.
func replayStride(measured int) int {
	if stride := (measured + maxReplaySamples - 1) / maxReplaySamples; stride > replayEvery {
		return stride
	}
	return replayEvery
}

// busiestEdge returns the edge carrying the most wavelength·time inside
// the committed period, lowest ID on ties; -1 when nothing is scheduled.
func busiestEdge(doc *scheduleDoc, down map[int]bool) int {
	load := make(map[int]float64)
	for _, j := range doc.Jobs {
		for _, p := range j.Paths {
			for _, s := range p.Slices {
				if s.T < doc.Start || s.T >= doc.End {
					continue
				}
				for _, e := range p.Edges {
					load[e] += s.Waves * s.Len
				}
			}
		}
	}
	best, bestLoad := -1, 0.0
	for e, l := range load {
		if down[e] {
			continue
		}
		if l > bestLoad || (l == bestLoad && best >= 0 && e < best) {
			best, bestLoad = e, l
		}
	}
	return best
}

// stormReq is one prepared request of a storm phase.
type stormReq struct {
	path string
	body []byte
	want int // expected HTTP status
	jobs int // jobs the request must get accepted
}

// stormDone is one completed storm request on its phase's clock.
type stormDone struct {
	doneS, latencyS float64
	jobs            int
}

// stormPhase runs one closed-loop client per request list and returns each
// client's completions.
func (p *pass) stormPhase(d *daemon, clients [][]stormReq) [][]stormDone {
	out := make([][]stormDone, len(clients))
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var q ops
			done := make([]stormDone, 0, len(clients[c]))
			for _, r := range clients[c] {
				t := time.Now()
				body, err := d.expect(r.want, http.MethodPost, r.path, r.body)
				if err == nil && r.want == http.StatusOK {
					var resp struct {
						Accepted int `json:"accepted"`
					}
					if err = json.Unmarshal(body, &resp); err == nil && resp.Accepted != r.jobs {
						err = fmt.Errorf("batch accepted %d of %d", resp.Accepted, r.jobs)
					}
				}
				q.op(err)
				done = append(done, stormDone{time.Since(t0).Seconds(), time.Since(t).Seconds(), r.jobs})
			}
			mu.Lock()
			out[c] = done
			p.merge(q)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out
}

// stormRate is a phase's throughput in jobs per second, robust to stalls:
// every client's completions are cut into up to 16 consecutive chunks, the
// clients' rates are added chunk by chunk, and the median chunk is taken —
// a WAL compaction or a GC pause slows one chunk, not the figure.
func stormRate(clients [][]stormDone) (rate float64, jobs int) {
	chunks := 16
	for _, c := range clients {
		if len(c) < chunks {
			chunks = len(c)
		}
	}
	if chunks == 0 {
		return 0, 0
	}
	rates := make([]float64, chunks)
	for _, c := range clients {
		prev := 0.0
		for i := 0; i < chunks; i++ {
			lo, hi := i*len(c)/chunks, (i+1)*len(c)/chunks
			n := 0
			for _, r := range c[lo:hi] {
				n += r.jobs
			}
			jobs += n
			rates[i] += float64(n) / (c[hi-1].doneS - prev)
			prev = c[hi-1].doneS
		}
	}
	return median(rates), jobs
}

// runStorm floods the intake: phase A single POSTs, phase B batch POSTs,
// each from stormClients closed-loop clients.
func (p *pass) runStorm(d *daemon, tr *trace) {
	var windowStart samples
	if p.opts.traced {
		windowStart = scrape()
	}
	singles := make([][]stormReq, len(tr.Singles))
	for c, jobs := range tr.Singles {
		for _, b := range jobs {
			body, _ := json.Marshal(b)
			singles[c] = append(singles[c], stormReq{"/v1/jobs", body, http.StatusAccepted, 1})
		}
	}
	batches := make([][]stormReq, len(tr.Batches))
	for c, reqs := range tr.Batches {
		for _, batch := range reqs {
			body, _ := json.Marshal(map[string][]submitBody{"jobs": batch})
			batches[c] = append(batches[c], stormReq{"/v1/jobs/batch", body, http.StatusOK, len(batch)})
		}
	}
	doneA := p.stormPhase(d, singles)
	doneB := p.stormPhase(d, batches)
	for _, c := range doneA {
		for _, r := range c {
			p.ackMs = append(p.ackMs, r.latencyS*1e3)
		}
	}
	for _, c := range doneB {
		for _, r := range c {
			p.batchHTTPS += r.latencyS
		}
	}
	// Jobs over the time both phases would take at their median rates.
	rateA, jobsA := stormRate(doneA)
	rateB, jobsB := stormRate(doneB)
	p.submitted = jobsA + jobsB
	if rateA > 0 && rateB > 0 {
		p.submitWallS = float64(jobsA)/rateA + float64(jobsB)/rateB
	}
	if p.opts.traced {
		last := scrape()
		p.runDelta.add(windowStart, last)
		p.gauges = last
	}
}

// restart reopens a daemon over the closed run's WAL and requires the
// replayed state to hold exactly what was acknowledged.
func (p *pass) restart(walDir string, tr *trace) {
	var accepted []submitBody
	for _, c := range tr.Singles {
		accepted = append(accepted, c...)
	}
	for _, c := range tr.Batches {
		for _, b := range c {
			accepted = append(accepted, b...)
		}
	}
	t0 := time.Now()
	d, err := startDaemon(p.g, serverConfig(p.opts.spec, walDir, nil))
	p.recoverS = time.Since(t0).Seconds()
	if !p.op(err) {
		return
	}
	var jobs jobsDoc
	if p.op(d.getJSON("/v1/jobs", &jobs)) {
		p.check(verifyPending(jobs.Jobs, accepted))
	}
	p.check(verifyRecords(d.srv.Records(), p.epochJobs))
	p.op(d.stop())
	if p.opts.traced {
		p.openReplayS = timeStoreOpen(walDir)
	}
}
