package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
)

func TestGenerateFailuresDeterministic(t *testing.T) {
	g := netgraph.Line(4, 2, 10)
	cfg := FailureConfig{MTBF: 5, MTTR: 1, Seed: 42, MaxTime: 100}
	a, err := GenerateFailures(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFailures(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different traces")
	}
	if len(a) == 0 {
		t.Fatal("MTBF 5 over 100 time units on 6 edges produced no failures")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Time < a[i-1].Time {
			t.Fatalf("trace not time-sorted at %d: %+v", i, a[i-1:i+1])
		}
	}
	// Per edge, events alternate down/up starting with a failure.
	last := map[netgraph.EdgeID]bool{} // last state seen: true = up
	seen := map[netgraph.EdgeID]bool{}
	for _, ev := range a {
		if !seen[ev.Edge] {
			if ev.Up {
				t.Fatalf("edge %d starts with a repair", ev.Edge)
			}
			seen[ev.Edge] = true
		} else if last[ev.Edge] == ev.Up {
			t.Fatalf("edge %d has consecutive %v events", ev.Edge, ev.Up)
		}
		last[ev.Edge] = ev.Up
	}

	c, err := GenerateFailures(g, FailureConfig{MTBF: 5, MTTR: 1, Seed: 43, MaxTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical traces")
	}
}

// TestGenerateFailuresRefusesBadConfig: every parameter must be positive
// and finite. Each call runs under a deadline, because an infinite MaxTime
// that slips through never returns.
func TestGenerateFailuresRefusesBadConfig(t *testing.T) {
	g := netgraph.Ring(6, 1, 10)
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []FailureConfig{
		{MTBF: 0, MTTR: 1, MaxTime: 10},
		{MTBF: 1, MTTR: -1, MaxTime: 10},
		{MTBF: 1, MTTR: 1, MaxTime: 0},
		{MTBF: nan, MTTR: 1, MaxTime: 10},
		{MTBF: inf, MTTR: 1, MaxTime: 10},
		{MTBF: 1, MTTR: nan, MaxTime: 10},
		{MTBF: 1, MTTR: inf, MaxTime: 10},
		{MTBF: 1, MTTR: 1, MaxTime: nan},
		{MTBF: 1, MTTR: 1, MaxTime: -inf},
		{MTBF: 5, MTTR: 1, MaxTime: inf},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := GenerateFailures(g, bad)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("config %+v accepted", bad)
			}
		case <-time.After(time.Second):
			t.Fatalf("config %+v: GenerateFailures did not return", bad)
		}
	}
}

func TestLinkTraceRoundTrip(t *testing.T) {
	in := []LinkEvent{
		{Time: 1.5, Edge: 0, Up: false},
		{Time: 2.25, Edge: 0, Up: true},
		{Time: 3, Edge: 4, Up: false},
	}
	var buf bytes.Buffer
	if err := WriteLinkTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadLinkTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}

	if _, err := ReadLinkTrace(bytes.NewReader([]byte(`[{"time": -1, "edge": 0}]`))); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := ReadLinkTrace(bytes.NewReader([]byte(`[{"time": 1, "edge": -2}]`))); err == nil {
		t.Error("negative edge accepted")
	}
	if _, err := ReadLinkTrace(bytes.NewReader([]byte(`{not json`))); err == nil {
		t.Error("malformed trace accepted")
	}
	// Out-of-order traces are sorted on read.
	got, err := ReadLinkTrace(bytes.NewReader([]byte(`[{"time": 5, "edge": 1}, {"time": 2, "edge": 0}]`)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Time != 2 {
		t.Errorf("trace not sorted on read: %+v", got)
	}
}

func TestEventOrderingLinkBeforeEpoch(t *testing.T) {
	q := NewQueue()
	q.Schedule(Event{Time: 2, Kind: EventEpoch})
	q.Schedule(Event{Time: 2, Kind: EventLinkUp, Edge: 1})
	q.Schedule(Event{Time: 2, Kind: EventLinkDown, Edge: 0})
	q.Schedule(Event{Time: 2, Kind: EventArrival})
	want := []EventKind{EventArrival, EventLinkUp, EventLinkDown, EventEpoch}
	for i, k := range want {
		ev, ok := q.Next()
		if !ok || ev.Kind != k {
			t.Fatalf("event %d: got kind %d (ok=%v), want %d", i, ev.Kind, ok, k)
		}
	}
}

// An empty (but non-nil) failure trace must behave exactly like Run.
func TestRunWithEmptyTraceMatchesRun(t *testing.T) {
	g := netgraph.Line(3, 2, 10)
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 2, Size: 4, Start: 0, End: 6},
		{ID: 2, Arrival: 1.2, Src: 2, Dst: 0, Size: 3, Start: 1.2, End: 8},
	}
	mk := func() *controller.Controller {
		c, err := controller.New(g, controller.Config{Tau: 2, SliceLen: 1, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, err := Run(mk(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWithFailures(mk(), jobs, []LinkEvent{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("empty trace diverged from Run:\n%+v\nvs\n%+v", a, b)
	}
}

// A failure trace that severs the only route mid-run drops the in-flight
// job and the repair lets later arrivals through.
func TestRunWithFailuresDropAndRecover(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 8, Start: 0, End: 4},
		{ID: 2, Arrival: 4.5, Src: 0, Dst: 1, Size: 2, Start: 4.5, End: 10},
	}
	trace := []LinkEvent{
		{Time: 1.5, Edge: 0, Up: false},
		{Time: 3.5, Edge: 0, Up: true},
	}
	c, err := controller.New(g, controller.Config{Tau: 1, SliceLen: 1, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithFailures(c, jobs, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != 2 {
		t.Fatalf("summary %+v, want 2 jobs accounted", res.Summary)
	}
	byID := map[job.ID]controller.Record{}
	for _, r := range res.Records {
		byID[r.Job.ID] = r
	}
	if r := byID[1]; !r.Disrupted || r.Completed {
		t.Errorf("job 1 %+v: want dropped by the failure", r)
	}
	if r := byID[2]; !r.Completed || !r.MetDeadline {
		t.Errorf("job 2 %+v: want completed after the repair", r)
	}
	if len(res.Disruptions) != 1 || res.Disruptions[0].Outcome != controller.DisruptedDropped {
		t.Errorf("disruptions %+v, want one drop", res.Disruptions)
	}
	if res.Summary.Disrupted != 1 {
		t.Errorf("summary disrupted = %d, want 1", res.Summary.Disrupted)
	}
}
