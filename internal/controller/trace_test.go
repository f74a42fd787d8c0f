package controller

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
)

// TestEpochSpansShowBuildAndDecompose: in a traced epoch the instance build
// and the partition are spans of their own under controller.epoch —
// schedule.build around the path work (on a ColumnGen daemon every
// schedule.colgen span nests inside it), schedule.decompose around the
// partition of both the MaxThroughput and the RET pipeline.
func TestEpochSpansShowBuildAndDecompose(t *testing.T) {
	g := netgraph.Ring(6, 2, 10)
	jobs := []job.Job{
		{ID: 1, Src: 0, Dst: 3, Size: 6, Start: 0, End: 6},
		{ID: 2, Src: 1, Dst: 4, Size: 4, Start: 0, End: 5},
		{ID: 3, Src: 5, Dst: 2, Size: 3, Start: 0, End: 8},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"maxthroughput", Config{Policy: PolicyMaxThroughput}},
		{"colgen", Config{Policy: PolicyMaxThroughput, ColumnGen: true}},
		{"ret", Config{Policy: PolicyRET}},
	} {
		var buf bytes.Buffer
		cfg := tc.cfg
		cfg.Tau, cfg.SliceLen = 1, 1
		cfg.Tracer = telemetry.NewTracer(&buf)
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		c, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if err := c.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		type span struct {
			Name   string
			ID     int64
			Parent int64
			Attrs  struct {
				Jobs       int
				Paths      int
				Components int
			}
		}
		byName := make(map[string][]span)
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var sp span
			if err := json.Unmarshal([]byte(line), &sp); err != nil {
				t.Fatalf("%s: bad trace line %q: %v", tc.name, line, err)
			}
			byName[sp.Name] = append(byName[sp.Name], sp)
		}
		if len(byName["controller.epoch"]) != 1 {
			t.Fatalf("%s: %d controller.epoch spans, want 1", tc.name, len(byName["controller.epoch"]))
		}
		epoch := byName["controller.epoch"][0].ID
		for _, name := range []string{"schedule.build", "schedule.decompose"} {
			if len(byName[name]) != 1 || byName[name][0].Parent != epoch {
				t.Fatalf("%s: %s spans %+v, want one under controller.epoch %d", tc.name, name, byName[name], epoch)
			}
		}
		build, dec := byName["schedule.build"][0], byName["schedule.decompose"][0]
		plan, _, _, ok := c.CommittedSchedule()
		if !ok {
			t.Fatalf("%s: nothing committed", tc.name)
		}
		paths := 0
		for _, ps := range plan.Inst.JobPaths {
			paths += len(ps)
		}
		if build.Attrs.Jobs != len(jobs) || build.Attrs.Paths != paths || dec.Attrs.Jobs != len(jobs) || dec.Attrs.Components < 1 {
			t.Errorf("%s: schedule.build %+v and schedule.decompose %+v, want %d jobs over %d paths and at least one component",
				tc.name, build.Attrs, dec.Attrs, len(jobs), paths)
		}
		cg := byName["schedule.colgen"]
		if tc.cfg.ColumnGen != (len(cg) > 0) {
			t.Errorf("%s: %d schedule.colgen spans", tc.name, len(cg))
		}
		for _, sp := range cg {
			if sp.Parent != build.ID {
				t.Errorf("%s: schedule.colgen under %d, want inside schedule.build %d", tc.name, sp.Parent, build.ID)
			}
		}
	}
}
