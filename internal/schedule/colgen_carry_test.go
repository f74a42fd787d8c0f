package schedule

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/telemetry"
	"wavesched/internal/timeslice"
	"wavesched/internal/workload"
)

// colgenEntry reads a pair's colgen cache entry without touching the hit
// counters or the recency order.
func colgenEntry(pc *PathCache, src, dst netgraph.NodeID, seedK int) []paths.Path {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[pathCacheKey{src: src, dst: dst, k: seedK, colgen: true}]
	if !ok {
		return nil
	}
	return el.Value.(*pathCacheEntry).ps
}

// steadyEpoch is one epoch of runSteadyTrace, handed to its callback.
type steadyEpoch struct {
	e       int
	inst    *Instance // after GeneratePaths: the grown pool
	carried []int     // paths each job was built with
	stats   *ColGenStats
}

// runSteadyTrace drives a moving-horizon MaxThroughput loop with column
// generation over one PathCache: every unit epoch a few seeded jobs
// arrive, windows are clipped to the clock, each job's demand shrinks by
// what the fractional plan moves in the epoch's first slice, and finished
// or expired jobs drop out — the controller's epoch loop reduced to what
// the path pool sees.
func runSteadyTrace(t *testing.T, seed int64, epochs int, opts lp.Options, each func(steadyEpoch)) {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 16, LinkPairs: 26, Wavelengths: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPathCache()
	var active []job.Job
	nextID := job.ID(1)
	for e := 0; e < epochs; e++ {
		now := float64(e)
		arrivals, err := workload.Generate(g, workload.Config{
			Jobs: 3, Seed: seed*1000 + int64(e), GBToDemand: 0.4,
			StartSpread: 1, MinWindow: 4, MaxWindow: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range arrivals {
			j.ID, j.Start, j.End, j.Arrival = nextID, j.Start+now, j.End+now, now
			nextID++
			active = append(active, j)
		}
		var jobs []job.Job
		for _, j := range active {
			if j.Start < now {
				j.Start = now
			}
			if j.End-j.Start >= 2 { // a whole slice whatever the alignment
				jobs = append(jobs, j)
			}
		}
		grid, err := timeslice.Uniform(now, 1, timeslice.CoverUntil(now, 1, job.MaxEnd(jobs)))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstanceOpts(g, grid, jobs, InstanceOptions{ColumnGen: true, PathCache: pc})
		if err != nil {
			t.Fatal(err)
		}
		carried := make([]int, len(jobs))
		for k := range jobs {
			carried[k] = len(inst.JobPaths[k])
		}
		stats, err := GeneratePaths(inst, ColGenConfig{Solver: opts})
		if err != nil {
			t.Fatal(err)
		}
		each(steadyEpoch{e: e, inst: inst, carried: carried, stats: stats})
		res, err := MaxThroughput(inst, Config{Solver: opts, AlphaGrowth: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		active = active[:0]
		for k, j := range jobs {
			for p := range res.LP.X[k] {
				j.Size -= res.LP.X[k][p][0] * grid.Len(0)
			}
			if j.Size > 1e-6 {
				active = append(active, j)
			}
		}
	}
}

// TestColGenCarriedPoolIsBoundedSupport: over a 20-epoch steady-arrival
// trace the pool a build starts from holds, beyond each pair's seeds, only
// paths a master of the publishing epoch routed flow over, and it stays
// small — the union the cache used to carry reached 15 paths a job by
// epoch 15 on the benchmark's trace.
func TestColGenCarriedPoolIsBoundedSupport(t *testing.T) {
	const seedK, maxPerJob = 2, 5.0
	type pair struct{ src, dst netgraph.NodeID }
	marked := make(map[pair]map[string]bool) // by the last epoch that published the pair
	added, evicted, worst := 0, 0, 0.0
	runSteadyTrace(t, 3, 20, solverOpts(), func(ep steadyEpoch) {
		total := 0
		for k, jb := range ep.inst.Jobs {
			total += ep.carried[k]
			for p := seedK; p < ep.carried[k]; p++ {
				if key := ep.inst.JobPaths[k][p].Key(); !marked[pair{jb.Src, jb.Dst}][key] {
					t.Errorf("epoch %d job %d: carried path %s was not in any master's support when published",
						ep.e, jb.ID, key)
				}
			}
		}
		if total != ep.stats.SeedPaths {
			t.Errorf("epoch %d: SeedPaths = %d, builds carried %d", ep.e, ep.stats.SeedPaths, total)
		}
		if perJob := float64(total) / float64(len(ep.inst.Jobs)); perJob > worst {
			worst = perJob
		}
		if !ep.stats.Proven {
			t.Fatalf("epoch %d: stage-1 pricing was cut short — the publish merged instead of replacing", ep.e)
		}
		added += ep.stats.AddedPaths
		evicted += ep.stats.Evicted
		fresh := make(map[pair]bool)
		for k, jb := range ep.inst.Jobs {
			key := pair{jb.Src, jb.Dst}
			if !fresh[key] {
				fresh[key] = true
				marked[key] = make(map[string]bool)
			}
			for p, used := range ep.stats.Support[k] {
				if used {
					marked[key][ep.inst.JobPaths[k][p].Key()] = true
				}
			}
		}
	})
	t.Logf("added %d, evicted %d, carried per job ≤ %.2f", added, evicted, worst)
	if added == 0 || evicted == 0 {
		t.Fatalf("trace priced in %d paths and evicted %d — it exercises nothing", added, evicted)
	}
	if worst > maxPerJob {
		t.Errorf("carried paths per job peaked at %.2f, want ≤ %v", worst, maxPerJob)
	}
}

// TestColGenProbeMergesNeverEvicts: a SkipStage2 run (the controller's
// admission probe) builds through the same cache key as the epoch solve
// but knows nothing of stage 2's support, so its publish may only add to
// the entries — a replacing one would evict every stage-2 path in the
// middle of a PolicyReject bisection.
func TestColGenProbeMergesNeverEvicts(t *testing.T) {
	unmarked := 0 // carried non-seed paths outside the probe's support
	runSteadyTrace(t, 3, 8, solverOpts(), func(ep steadyEpoch) {
		if ep.e < 7 {
			return
		}
		// The epoch's run has published; probe the same jobs.
		cg := ep.inst.colgen
		probe, err := NewInstanceOpts(ep.inst.G, ep.inst.Grid, ep.inst.Jobs,
			InstanceOptions{ColumnGen: true, PathCache: cg.cache})
		if err != nil {
			t.Fatal(err)
		}
		before := append([][]paths.Path(nil), probe.JobPaths...) // the entries; GeneratePaths clones before it appends
		stats, err := GeneratePaths(probe, ColGenConfig{Solver: solverOpts(), SkipStage2: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Evicted != 0 {
			t.Errorf("probe evicted %d carried paths", stats.Evicted)
		}
		for k, jb := range probe.Jobs {
			after := make(map[string]bool)
			for _, p := range colgenEntry(cg.cache, jb.Src, jb.Dst, seedPaths) {
				after[p.Key()] = true
			}
			for p, path := range before[k] {
				if !after[path.Key()] {
					t.Errorf("job %d: probe dropped carried path %s", jb.ID, path.Key())
				}
				if p >= seedPaths && !stats.Support[k][p] {
					unmarked++
				}
			}
		}
	})
	if unmarked == 0 {
		t.Fatal("every carried path was in the probe's own support — a replacing publish would pass too")
	}
}

// TestColGenCutShortIsNotACertificate: a stage-1 master that runs out of
// rounds while columns still price in proves nothing — Proven is false,
// the solve that follows pays for its own stage 1, and nothing is evicted
// on the word of a master that did not finish.
func TestColGenCutShortIsNotACertificate(t *testing.T) {
	g, jobs := thetaGraphJob(t)
	for _, tc := range []struct {
		name      string
		maxRounds int
		proven    bool
	}{{"priced to the end", 0, true}, {"MaxRounds 1", 1, false}} {
		inst, err := NewInstanceOpts(g, mustGrid(t, 4), jobs, InstanceOptions{ColumnGen: true})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := GeneratePaths(inst, ColGenConfig{Solver: solverOpts(), MaxRounds: tc.maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Proven != tc.proven {
			t.Fatalf("%s: Proven = %v, want %v (stats %+v)", tc.name, stats.Proven, tc.proven, stats)
		}
		solves, certified := readCounter(t, "schedule_stage1_solves_total"), readCounter(t, "schedule_stage1_certified_total")
		res, err := MaxThroughput(inst, Config{Solver: solverOpts()})
		if err != nil {
			t.Fatal(err)
		}
		solves = readCounter(t, "schedule_stage1_solves_total") - solves
		certified = readCounter(t, "schedule_stage1_certified_total") - certified
		if tc.proven && (solves != 0 || certified != 1) {
			t.Errorf("%s: %d cold stage-1 solves, %d certified, want 0 and 1", tc.name, solves, certified)
		}
		if !tc.proven && (solves != 1 || certified != 0) {
			t.Errorf("%s: %d cold stage-1 solves, %d certified, want 1 and 0", tc.name, solves, certified)
		}
		cold, err := SolveStage1(inst, solverOpts())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.ZStar-cold.ZStar) > 1e-9 {
			t.Errorf("%s: pipeline Z* %v, cold stage 1 over the same pool %v", tc.name, res.ZStar, cold.ZStar)
		}
	}
}

// TestColGenTelemetryShowsThePool: every GeneratePaths run leaves one
// schedule.colgen event and the pool instruments agreeing with its stats,
// so a trace can say why an epoch's LP is the size it is.
func TestColGenTelemetryShowsThePool(t *testing.T) {
	var buf bytes.Buffer
	opts := solverOpts()
	opts.Tracer = telemetry.NewTracer(&buf)
	evicted := readCounter(t, "schedule_colgen_evicted_paths_total")
	var runs []*ColGenStats
	runSteadyTrace(t, 3, 8, opts, func(ep steadyEpoch) {
		runs = append(runs, ep.stats)
		evicted += int64(ep.stats.Evicted)
		if g := telemetry.Default().Gauge("schedule_colgen_carried_paths", "").Value(); g != float64(ep.stats.SeedPaths) {
			t.Errorf("epoch %d: schedule_colgen_carried_paths = %v, run carried %d", ep.e, g, ep.stats.SeedPaths)
		}
	})
	if got := readCounter(t, "schedule_colgen_evicted_paths_total"); got != evicted {
		t.Errorf("schedule_colgen_evicted_paths_total = %d, want %d", got, evicted)
	}
	if err := opts.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	type attrs struct {
		Carried, Added, Evicted, Rounds, Solves int
		Proven                                  bool
	}
	var events []attrs
	for _, r := range parseTrace(t, &buf) {
		if r.Name != "schedule.colgen" {
			continue
		}
		var a attrs
		if err := json.Unmarshal(r.Attrs, &a); err != nil {
			t.Fatalf("bad schedule.colgen attrs %s: %v", r.Attrs, err)
		}
		events = append(events, a)
	}
	if len(events) != len(runs) {
		t.Fatalf("%d schedule.colgen events for %d GeneratePaths runs", len(events), len(runs))
	}
	for i, st := range runs {
		a := events[i]
		if a.Carried != st.SeedPaths || a.Added != st.AddedPaths || a.Evicted != st.Evicted ||
			a.Rounds != st.Rounds || a.Solves != st.Solves || a.Proven != st.Proven {
			t.Errorf("epoch %d: event %+v, stats %+v", i, a, st)
		}
	}
}

// TestColGenMasterSpansShowTheirRows: every schedule.colgen_master span says
// how many capacity rows its master ended with — the lp.solve spans under it
// reach job rows + cap_rows — how many loaded cells it left without one and
// how many rows its growth gave back; schedule_capacity_rows_dropped_total
// counts the cells each master was built or grown without a row for, which
// is its span's dropped plus restored.
func TestColGenMasterSpansShowTheirRows(t *testing.T) {
	dropped, restored := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 16, LinkPairs: 26, Wavelengths: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := workload.Generate(g, workload.Config{Jobs: 10, Seed: seed + 700, GBToDemand: 0.4, MinWindow: 3, MaxWindow: 6})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstanceOpts(g, mustGrid(t, 6), jobs, InstanceOptions{ColumnGen: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		opts := solverOpts()
		opts.Tracer = telemetry.NewTracer(&buf)
		before := readCounter(t, "schedule_capacity_rows_dropped_total")
		if _, err := GeneratePaths(inst, ColGenConfig{Solver: opts}); err != nil {
			t.Fatal(err)
		}
		counted := readCounter(t, "schedule_capacity_rows_dropped_total") - before
		if err := opts.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		recs := parseTrace(t, &buf)
		rows := map[int64]int{} // the largest lp.solve under each span
		for _, r := range recs {
			if r.Name == "lp.solve" {
				var a struct{ Rows int }
				if err := json.Unmarshal(r.Attrs, &a); err != nil {
					t.Fatal(err)
				}
				rows[r.Parent] = max(rows[r.Parent], a.Rows)
			}
		}
		spanned := int64(0)
		for _, r := range recs {
			if r.Name != "schedule.colgen_master" {
				continue
			}
			var a struct {
				Jobs            int
				CapRows         int `json:"cap_rows"`
				CapRowsDropped  int `json:"cap_rows_dropped"`
				CapRowsRestored int `json:"cap_rows_restored"`
			}
			if err := json.Unmarshal(r.Attrs, &a); err != nil {
				t.Fatal(err)
			}
			if rows[r.ID] != a.Jobs+a.CapRows {
				t.Errorf("seed %d: master span %s over lp.solve spans of up to %d rows, want jobs + cap_rows", seed, r.Attrs, rows[r.ID])
			}
			spanned += int64(a.CapRowsDropped + a.CapRowsRestored)
			dropped += a.CapRowsDropped
			restored += a.CapRowsRestored
		}
		if spanned != counted {
			t.Errorf("seed %d: schedule_capacity_rows_dropped_total rose by %d, the master spans drop and restore %d", seed, counted, spanned)
		}
	}
	if dropped == 0 || restored == 0 {
		t.Errorf("the masters ended with %d cells without a row and gave %d rows back: the trace shows nothing", dropped, restored)
	}
	t.Logf("the masters ended with %d cells without a row and gave %d rows back", dropped, restored)
}
