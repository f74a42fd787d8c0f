package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs seen")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name returns the same instrument.
	if r.Counter("jobs_total", "jobs seen") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3.5)
	g.Add(-1)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %g, want 2.5", g.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic registering gauge over counter")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-111.5) > 1e-9 {
		t.Errorf("sum = %g", h.Sum())
	}
	// One count per bucket, the last past the largest finite bound.
	for i, want := range []uint64{1, 2, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("lp_pivots_total", "total pivots").Add(42)
	r.Gauge("zstar", "stage-1 Z*").Set(1.25)
	h := r.Histogram("lp_solve_seconds", "solve wall time", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.CounterWith("lp_solves_total", "solves by status", map[string]string{"status": "optimal"}).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lp_pivots_total counter",
		"lp_pivots_total 42",
		"# TYPE zstar gauge",
		"zstar 1.25",
		"# TYPE lp_solve_seconds histogram",
		`lp_solve_seconds_bucket{le="0.1"} 1`,
		`lp_solve_seconds_bucket{le="1"} 2`,
		`lp_solve_seconds_bucket{le="+Inf"} 3`,
		"lp_solve_seconds_sum 2.55",
		"lp_solve_seconds_count 3",
		`lp_solves_total{status="optimal"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestPrometheusLabelValueEscaping is the regression test for label
// values containing backslash, quote, and newline: they must come out as
// \\, \", and \n — and nothing else may be escaped (non-ASCII stays raw).
func TestPrometheusLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("evil_total", "evil labels", map[string]string{
		"path":  `C:\tmp\"x"` + "\nnext",
		"route": "/v1/jobs/é", // non-ASCII must pass through unescaped
	}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `evil_total{path="C:\\tmp\\\"x\"\nnext",route="/v1/jobs/é"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped series missing:\nwant %s\ngot  %s", want, out)
	}
	if strings.Contains(out, `\u`) || strings.Contains(out, `\x`) {
		t.Errorf("output contains Go-style escapes invalid in exposition format:\n%s", out)
	}
}

func TestCounterValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Add(3)
	r.CounterWith("by_status_total", "", map[string]string{"status": "ok"}).Add(2)
	if v, ok := r.CounterValue("hits_total", nil); !ok || v != 3 {
		t.Errorf("hits_total = (%d, %v), want (3, true)", v, ok)
	}
	if v, ok := r.CounterValue("by_status_total", map[string]string{"status": "ok"}); !ok || v != 2 {
		t.Errorf("by_status_total = (%d, %v), want (2, true)", v, ok)
	}
	if _, ok := r.CounterValue("missing_total", nil); ok {
		t.Error("missing counter reported ok")
	}
	r.Gauge("g", "")
	if _, ok := r.CounterValue("g", nil); ok {
		t.Error("gauge reported as counter")
	}
}

// TestConcurrentUpdatesAndScrapes hammers every instrument kind from many
// goroutines while scraping; run with -race.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			c := r.Counter("ops_total", "ops")
			g := r.Gauge("level", "level")
			h := r.Histogram("dur", "durations", []float64{0.001, 0.01, 0.1, 1})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	// Concurrent scrapes while updates are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := r.Counter("ops_total", "ops").Value(); got != workers*perWorker {
		t.Errorf("ops_total = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level", "level").Value(); got != workers*perWorker {
		t.Errorf("level = %g, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("dur", "durations", nil).Count(); got != workers*perWorker {
		t.Errorf("dur count = %d, want %d", got, workers*perWorker)
	}
}
