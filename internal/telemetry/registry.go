// Package telemetry provides the observability substrate for the
// scheduler: a lock-cheap metrics registry (counters, gauges, fixed-bucket
// histograms) rendered in Prometheus text format, and a span-style tracer
// that emits structured JSONL events.
//
// Instrument updates are single atomic operations so instrumentation can
// stay enabled on hot paths; the registry lock is only taken when an
// instrument is first registered or when the registry is scraped. Tracing
// is opt-in per call site: every method on a nil *Tracer is a no-op, so
// packages thread a possibly-nil tracer through their options structs and
// pay only a nil check when tracing is off.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]any // *Counter | *Gauge | *Histogram
	order []string       // keys in registration order (stable rendering)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]any)}
}

// std is the process-wide default registry that the instrumented packages
// (lp, schedule, controller, sim) register into and that cmd/wavesched
// serves over HTTP.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// seriesKey builds the unique instrument key: the metric name plus its
// sorted label pairs, which doubles as the Prometheus series name.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the instrument under key, or registers the one built by
// mk. It panics when the key is already bound to a different kind, which
// is a programming error akin to redeclaring a variable.
func (r *Registry) lookup(key string, mk func() any) any {
	r.mu.RLock()
	ins, ok := r.byKey[key]
	r.mu.RUnlock()
	if ok {
		return ins
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok := r.byKey[key]; ok {
		return ins
	}
	ins = mk()
	r.byKey[key] = ins
	r.order = append(r.order, key)
	return ins
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith returns the counter for name with the given constant labels.
func (r *Registry) CounterWith(name, help string, labels map[string]string) *Counter {
	key := seriesKey(name, labels)
	ins := r.lookup(key, func() any {
		return &Counter{name: name, key: key, help: help, labels: copyLabels(labels)}
	})
	c, ok := ins.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", key, ins))
	}
	return c
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith returns the gauge for name with the given constant labels.
func (r *Registry) GaugeWith(name, help string, labels map[string]string) *Gauge {
	key := seriesKey(name, labels)
	ins := r.lookup(key, func() any {
		return &Gauge{name: name, key: key, help: help, labels: copyLabels(labels)}
	})
	g, ok := ins.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", key, ins))
	}
	return g
}

// Histogram returns the registered histogram, creating it on first use
// with the given bucket upper bounds (ascending; +Inf is implicit). A nil
// buckets slice selects TimeBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramWith(name, help, buckets, nil)
}

// HistogramWith returns the histogram for name with constant labels.
func (r *Registry) HistogramWith(name, help string, buckets []float64, labels map[string]string) *Histogram {
	key := seriesKey(name, labels)
	ins := r.lookup(key, func() any {
		h := newHistogram(name, key, help, buckets)
		h.labels = copyLabels(labels)
		return h
	})
	h, ok := ins.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", key, ins))
	}
	return h
}

// CounterValue reads the current value of a registered counter by name
// and labels, reporting ok=false when no such counter exists. It lets
// observers (the flight recorder's anomaly detection, tests) sample
// counters they did not register without holding instrument handles.
func (r *Registry) CounterValue(name string, labels map[string]string) (int64, bool) {
	r.mu.RLock()
	ins, ok := r.byKey[seriesKey(name, labels)]
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	c, ok := ins.(*Counter)
	if !ok {
		return 0, false
	}
	return c.Value(), true
}

// each visits the instruments in registration order under the read lock.
func (r *Registry) each(fn func(key string, ins any)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, key := range r.order {
		fn(key, r.byKey[key])
	}
}

// copyLabels defensively copies a label map (nil stays nil).
func copyLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, key, help string
	labels          map[string]string
	v               atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	name, key, help string
	labels          map[string]string
	bits            atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d with a compare-and-swap loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// TimeBuckets is the default histogram layout for durations in seconds:
// 100µs to 10s, roughly ×2.5 per step.
var TimeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. Updates are two
// atomic adds plus a CAS for the running sum.
type Histogram struct {
	name, key, help string
	labels          map[string]string
	bounds          []float64 // ascending upper bounds; +Inf implicit
	counts          []atomic.Uint64
	count           atomic.Uint64
	sumBits         atomic.Uint64 // float64 bits
}

func newHistogram(name, key, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = TimeBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
	return &Histogram{
		name:   name,
		key:    key,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		cur := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed wall time since t0 in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }
