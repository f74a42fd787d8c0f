// Sustained-load benchmark for the admission subsystem: intake
// throughput of the batched submit path, and the cost of incremental
// re-planning vs a full re-solve when churn touches one component of
// many.
package experiments

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/metrics"
	"wavesched/internal/netgraph"
	"wavesched/internal/schedule"
	"wavesched/internal/server"
	"wavesched/internal/timeslice"
)

// AdmissionResult is the sustained-load benchmark's headline numbers.
type AdmissionResult struct {
	Jobs    int // submissions per throughput run
	Writers int // concurrent submitter goroutines

	// Durable intake throughput (WAL fsync before ack): lock-free intake,
	// one fsync per batch.
	BatchedPerSec float64

	// Incremental re-planning: one dirty component out of Components.
	FullMs     float64 // full decomposed re-solve, serial
	IncrMs     float64 // incremental re-solve with a warm plan cache, serial
	IncrRatio  float64 // IncrMs / FullMs
	Components int
	Reused     int // component plans reused by the incremental solve
}

// AdmissionLoad runs both halves of the benchmark. jobs/writers <= 0
// select the acceptance-scale defaults (5000 jobs, 32 writers).
func AdmissionLoad(sc Scale, jobs, writers int) (AdmissionResult, error) {
	if jobs <= 0 {
		jobs = 5000
	}
	if writers <= 0 {
		writers = 32
	}
	res := AdmissionResult{Jobs: jobs, Writers: writers}

	// Best of several runs, each against a fresh server and WAL, after one
	// discarded warm-up: a single run lasts well under a second and covers
	// only a handful of fsyncs, so one slow flush or scheduler hiccup
	// shifts the raw number by double-digit percents. The best-of
	// estimator converges on the hardware's actual capability.
	const reps = 5
	for r := 0; r <= reps; r++ {
		runtime.GC()
		v, err := submitThroughput(jobs, writers)
		if err != nil {
			return res, fmt.Errorf("batched intake: %w", err)
		}
		if r > 0 && v > res.BatchedPerSec { // r == 0 is the warm-up
			res.BatchedPerSec = v
		}
	}

	if err := incrementalReplan(sc, &res); err != nil {
		return res, fmt.Errorf("incremental re-plan: %w", err)
	}
	return res, nil
}

// submitThroughput measures accepted submissions per second against a
// durable (WAL-backed) server. Every job's window lies far in the
// future, so the cost measured is pure intake: admission gates, WAL
// fsync, controller buffering — no solves.
func submitThroughput(jobs, writers int) (float64, error) {
	dir, err := os.MkdirTemp("", "wavesched-admission-bench-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	g := netgraph.Line(2, 2, 10)
	s, err := server.New(g, server.Config{
		Controller: controller.Config{Tau: 1, SliceLen: 1, K: 1, Policy: controller.PolicyMaxThroughput},
		WALDir:     dir,
	})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	h := s.Handler()

	// Every writer pushes its share of the load through the bulk surface
	// (POST /v1/jobs/batch in chunks), the way a loaded client drives it.
	const one = `{"src": 0, "dst": 1, "size": 1, "start": 1000000, "end": 1000010}`
	const chunk = 128
	batchBody := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = one
		}
		return `{"jobs": [` + strings.Join(parts, ",") + `]}`
	}

	var failures atomic.Int64
	perWriter := jobs / writers
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left := perWriter; left > 0; left -= chunk {
				n := min(chunk, left)
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs/batch", strings.NewReader(batchBody(n)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var resp struct {
					Accepted int `json:"accepted"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted != n {
					failures.Add(int64(n - resp.Accepted))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := failures.Load(); n > 0 {
		return 0, fmt.Errorf("%d of %d submissions not accepted", n, perWriter*writers)
	}
	return float64(perWriter*writers) / elapsed.Seconds(), nil
}

// replanClusters builds nClusters disjoint 4-node rings (3 jobs each)
// plus a low-capacity bottleneck cluster whose single oversized job pins
// the global Z* — so churn elsewhere leaves the fairness floor, and with
// it the cached stage-2 plans, valid.
func replanClusters(nClusters int) (*netgraph.Graph, []job.Job, error) {
	g := netgraph.New("admission-replan")
	var jobs []job.Job
	id := 0
	for c := 0; c < nClusters; c++ {
		var nodes []netgraph.NodeID
		for i := 0; i < 4; i++ {
			nodes = append(nodes, g.AddNode(fmt.Sprintf("c%d-n%d", c, i), float64(c), float64(i)))
		}
		for i := 0; i < 4; i++ {
			if err := g.AddPair(nodes[i], nodes[(i+1)%4], 2, 10); err != nil {
				return nil, nil, err
			}
		}
		for i := 0; i < 6; i++ {
			start := float64((c + i) % 3)
			jobs = append(jobs, job.Job{
				ID: job.ID(id), Src: nodes[i%4], Dst: nodes[(i+2)%4],
				Size:  4 + float64((2*i+c)%5),
				Start: start, End: start + 4,
			})
			id++
		}
	}
	a := g.AddNode("bn-a", -1, 0)
	b := g.AddNode("bn-b", -1, 1)
	if err := g.AddPair(a, b, 1, 10); err != nil {
		return nil, nil, err
	}
	jobs = append(jobs, job.Job{ID: job.ID(id), Src: a, Dst: b, Size: 100, Start: 0, End: 4})
	return g, jobs, nil
}

// incrementalReplan times a full decomposed re-solve against the
// incremental path when an arrival churns exactly one of the instance's
// components. Parallelism is pinned to 1 so the ratio measures work
// saved, not workers added; each side reports its best of reps runs so
// a stray GC pause cannot masquerade as solve time.
func incrementalReplan(sc Scale, res *AdmissionResult) error {
	const reps = 5
	g, jobs, err := replanClusters(7) // 7 rings + 1 bottleneck = 8 components
	if err != nil {
		return err
	}
	grid, err := timeslice.Uniform(0, 1, 8)
	if err != nil {
		return err
	}
	cfg := schedule.Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: sc.Solver, Parallelism: 1}

	inst0, err := schedule.NewInstance(g, grid, jobs, 2)
	if err != nil {
		return err
	}
	_, cache, err := schedule.MaxThroughputIncremental(inst0, cfg, nil)
	if err != nil {
		return err
	}

	// Churn: one fresh arrival into cluster 0's component.
	churned := append(append([]job.Job(nil), jobs...), job.Job{
		ID: job.ID(len(jobs) + 1), Src: jobs[0].Src, Dst: jobs[0].Dst,
		Size: 2, Start: 1, End: 4,
	})
	inst1, err := schedule.NewInstance(g, grid, churned, 2)
	if err != nil {
		return err
	}

	runtime.GC()
	var fullNs, incrNs int64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := schedule.MaxThroughput(inst1, cfg); err != nil {
			return err
		}
		if d := time.Since(t0).Nanoseconds(); fullNs == 0 || d < fullNs {
			fullNs = d
		}

		t0 = time.Now()
		incRes, _, err := schedule.MaxThroughputIncremental(inst1, cfg, cache)
		if err != nil {
			return err
		}
		if d := time.Since(t0).Nanoseconds(); incrNs == 0 || d < incrNs {
			incrNs = d
		}
		res.Components, res.Reused = incRes.Components, incRes.Reused
	}
	res.FullMs = float64(fullNs) / 1e6
	res.IncrMs = float64(incrNs) / 1e6
	if res.FullMs > 0 {
		res.IncrRatio = res.IncrMs / res.FullMs
	}
	return nil
}

// AdmissionTable renders the benchmark for the terminal.
func AdmissionTable(title string, r AdmissionResult) *metrics.Table {
	t := metrics.NewTable(title,
		"metric", "value")
	t.AddRow("submissions", fmt.Sprintf("%d x %d writers", r.Jobs, r.Writers))
	t.AddRow("batched jobs/s", fmt.Sprintf("%.0f", r.BatchedPerSec))
	t.AddRow("full re-solve ms", fmt.Sprintf("%.2f", r.FullMs))
	t.AddRow("incremental ms", fmt.Sprintf("%.2f", r.IncrMs))
	t.AddRow("incremental/full", fmt.Sprintf("%.2f", r.IncrRatio))
	t.AddRow("components reused", fmt.Sprintf("%d of %d", r.Reused, r.Components))
	return t
}
