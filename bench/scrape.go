package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"wavesched/internal/telemetry"
)

// samples is one scrape of the process-wide registry in Prometheus text
// form, keyed by series name (labels included) — the same view an operator
// gets from /metrics, so the benchmark reads the daemon's instruments
// without holding handles to them or adding any.
type samples map[string]float64

func scrape() samples {
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		return samples{}
	}
	out := make(samples)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// add accumulates (after − before) into d, series by series. Gauges are
// not deltas; callers read those from a single scrape.
func (d samples) add(before, after samples) {
	for k, v := range after {
		d[k] += v - before[k]
	}
}

// sumPrefix totals every series of one metric family across its labels.
func (d samples) sumPrefix(name string) float64 {
	t := 0.0
	for k, v := range d {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates a quantile of histogram name from its bucket
// deltas, interpolating inside the located bucket like Histogram.Quantile.
func (d samples) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range d {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		if le == "+Inf" {
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{b, v})
	}
	total := d[name+"_count"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prev {
			return lo + (rank-prev)/(b.cum-prev)*(b.le-lo)
		}
		lo, prev = b.le, b.cum
	}
	return bs[len(bs)-1].le
}

// spanRec is one span of the daemon's JSONL trace, on the harness clock.
type spanRec struct {
	ID, Parent, Trace int64
	Name              string
	Start, End        float64 // seconds since the trace origin
	Attrs             map[string]any
}

// parseSpans decodes the tracer's JSONL stream, keeping spans only. The
// tracer stamps a span at End, so Start is ts − dur_us.
func parseSpans(jsonl []byte, origin time.Time) ([]spanRec, error) {
	var out []spanRec
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var rec struct {
			TS     string         `json:"ts"`
			Kind   string         `json:"kind"`
			ID     int64          `json:"id"`
			Trace  int64          `json:"trace"`
			Parent int64          `json:"parent"`
			Name   string         `json:"name"`
			DurUS  *float64       `json:"dur_us"`
			Attrs  map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace line: %w", err)
		}
		if rec.Kind != "span" || rec.DurUS == nil {
			continue
		}
		ts, err := time.Parse(time.RFC3339Nano, rec.TS)
		if err != nil {
			return nil, fmt.Errorf("trace timestamp: %w", err)
		}
		end := ts.Sub(origin).Seconds()
		out = append(out, spanRec{
			ID: rec.ID, Parent: rec.Parent, Trace: rec.Trace, Name: rec.Name,
			Start: end - *rec.DurUS/1e6, End: end, Attrs: rec.Attrs,
		})
	}
	return out, sc.Err()
}

// spanTree indexes spans by parent.
type spanTree struct {
	kids map[int64][]spanRec
}

func newSpanTree(spans []spanRec) *spanTree {
	t := &spanTree{kids: make(map[int64][]spanRec)}
	for _, s := range spans {
		if s.Parent != 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], s)
		}
	}
	return t
}

// selfTime is a span's duration minus the part of it its direct children
// cover. Children are merged as a union: sibling component solves run on a
// worker pool and overlap in time.
func (t *spanTree) selfTime(s spanRec) float64 {
	return (s.End - s.Start) - unionLen(clip(intervalsOf(t.kids[s.ID]), s.Start, s.End))
}

// descendants appends every span below s whose name satisfies keep.
func (t *spanTree) descendants(s spanRec, keep func(string) bool, out []spanRec) []spanRec {
	for _, k := range t.kids[s.ID] {
		if keep(k.Name) {
			out = append(out, k)
		}
		out = t.descendants(k, keep, out)
	}
	return out
}

func intervalsOf(spans []spanRec) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	return ivs
}
