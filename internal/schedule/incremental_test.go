package schedule

import (
	"fmt"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

// bottleneckedClusters builds nClusters disjoint clusters plus one extra
// low-capacity cluster holding a single oversized job, which pins the
// global Z* = min over components to the bottleneck's value regardless of
// what churns in the other clusters. Jobs in the regular clusters start
// at startMin or later, so the instance can be rebuilt at a later grid
// origin without clipping any window.
func bottleneckedClusters(t testing.TB, nClusters int, startMin float64, seed int64) (*netgraph.Graph, []job.Job) {
	t.Helper()
	g := netgraph.New("bottlenecked")
	var jobs []job.Job
	id := 0
	for c := 0; c < nClusters; c++ {
		var nodes []netgraph.NodeID
		for i := 0; i < 4; i++ {
			nodes = append(nodes, g.AddNode(fmt.Sprintf("c%d-n%d", c, i), float64(c), float64(i)))
		}
		for i := 0; i < 4; i++ {
			if err := g.AddPair(nodes[i], nodes[(i+1)%4], 2, 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			start := startMin + float64((int(seed)+c+i)%2)
			jobs = append(jobs, job.Job{
				ID: job.ID(id), Src: nodes[i], Dst: nodes[(i+2)%4],
				Size:  4 + float64((int(seed)+2*i+c)%5),
				Start: start, End: start + 3,
			})
			id++
		}
	}
	// Bottleneck: one wavelength, one huge job — the smallest component
	// optimum by construction, and static across churn in other clusters.
	a := g.AddNode("bn-a", -1, 0)
	b := g.AddNode("bn-b", -1, 1)
	if err := g.AddPair(a, b, 1, 10); err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job.Job{
		ID: job.ID(id), Src: a, Dst: b, Size: 100,
		Start: startMin, End: startMin + 4,
	})
	return g, jobs
}

func instanceAt(t testing.TB, g *netgraph.Graph, jobs []job.Job, origin float64, n int) *Instance {
	t.Helper()
	grid, err := timeslice.Uniform(origin, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, grid, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestIncrementalNoCacheMatchesFull: with no cache to draw on, the
// incremental entry point must reproduce MaxThroughput bit for bit and
// hand back a cache covering every component.
func TestIncrementalNoCacheMatchesFull(t *testing.T) {
	g, jobs := bottleneckedClusters(t, 3, 0, 7)
	cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts()}
	full, err := MaxThroughput(instanceAt(t, g, jobs, 0, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, cache, err := MaxThroughputIncremental(instanceAt(t, g, jobs, 0, 8), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Components != full.Components || inc.Components < 4 {
		t.Fatalf("components: inc %d full %d (want >= 4, equal)", inc.Components, full.Components)
	}
	if inc.Reused != 0 {
		t.Fatalf("cold incremental solve reports %d reused components", inc.Reused)
	}
	if inc.ZStar != full.ZStar || inc.Alpha != full.Alpha {
		t.Fatalf("Z*/alpha differ: inc (%v, %v) full (%v, %v)", inc.ZStar, inc.Alpha, full.ZStar, full.Alpha)
	}
	for _, pair := range []struct {
		name      string
		inc, full *Assignment
	}{{"LP", inc.LP, full.LP}, {"LPD", inc.LPD, full.LPD}, {"LPDAR", inc.LPDAR, full.LPDAR}} {
		if ib, fb := assignmentBytes(pair.inc), assignmentBytes(pair.full); ib != fb {
			t.Fatalf("%s differs between incremental (no cache) and full:\ninc:\n%s\nfull:\n%s", pair.name, ib, fb)
		}
	}
	if cache == nil || len(cache.Plans) != inc.Components {
		t.Fatalf("cache covers %d components, solve found %d", len(cache.Plans), inc.Components)
	}
	if cache.ZStar != inc.ZStar {
		t.Fatalf("cache Z* %v, solve Z* %v", cache.ZStar, inc.ZStar)
	}
}

// TestIncrementalReuseByteIdentical: churn one cluster (an arrival),
// re-plan incrementally, and require (a) byte-identity with the full
// re-solve under Dantzig + per-pivot refactorization and (b) that every
// untouched component was actually reused rather than re-solved.
func TestIncrementalReuseByteIdentical(t *testing.T) {
	g, jobs := bottleneckedClusters(t, 3, 0, 9)
	cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts()}

	_, cache, err := MaxThroughputIncremental(instanceAt(t, g, jobs, 0, 8), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Churn: a new arrival inside cluster 0 only.
	churned := append(append([]job.Job(nil), jobs...), job.Job{
		ID: 100, Src: jobs[0].Src, Dst: jobs[0].Dst, Size: 2, Start: 1, End: 4,
	})
	full, err := MaxThroughput(instanceAt(t, g, churned, 0, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, next, err := MaxThroughputIncremental(instanceAt(t, g, churned, 0, 8), cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Components != full.Components {
		t.Fatalf("components: inc %d full %d", inc.Components, full.Components)
	}
	// Clusters 1, 2 and the bottleneck are untouched: three reuses.
	if inc.Reused < inc.Components-1 {
		t.Fatalf("reused %d of %d components, want all but the churned one", inc.Reused, inc.Components)
	}
	if inc.ZStar != full.ZStar || inc.Alpha != full.Alpha {
		t.Fatalf("Z*/alpha differ: inc (%v, %v) full (%v, %v)", inc.ZStar, inc.Alpha, full.ZStar, full.Alpha)
	}
	for _, pair := range []struct {
		name      string
		inc, full *Assignment
	}{{"LP", inc.LP, full.LP}, {"LPD", inc.LPD, full.LPD}, {"LPDAR", inc.LPDAR, full.LPDAR}} {
		if ib, fb := assignmentBytes(pair.inc), assignmentBytes(pair.full); ib != fb {
			t.Fatalf("%s differs between incremental (cached) and full:\ninc:\n%s\nfull:\n%s", pair.name, ib, fb)
		}
	}
	if next == nil || len(next.Plans) != inc.Components {
		t.Fatal("refreshed cache does not cover the new component set")
	}
}

// TestIncrementalGridShiftResolves: advancing the grid origin (the
// controller's epoch step) leaves nothing to reuse, even for components
// whose jobs are still wholly in the future. Their LPs are the cached ones
// shifted by a slice, but the plan is the canonical one, and its
// Quick-Finish weights count slices from the grid's origin: every component
// re-solves, and the result is byte-equal to the full solve.
func TestIncrementalGridShiftResolves(t *testing.T) {
	// All jobs start at t >= 2, so an origin-1 rebuild clips nothing.
	g, jobs := bottleneckedClusters(t, 3, 2, 5)
	cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts()}

	_, cache, err := MaxThroughputIncremental(instanceAt(t, g, jobs, 0, 8), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// One epoch later: origin 1, one fewer slice, a completion in
	// cluster 1 (drop one job).
	var churned []job.Job
	for i, j := range jobs {
		if i == 3 { // first job of cluster 1
			continue
		}
		churned = append(churned, j)
	}
	full, err := MaxThroughput(instanceAt(t, g, churned, 1, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, next, err := MaxThroughputIncremental(instanceAt(t, g, churned, 1, 7), cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Components < 3 || inc.Reused != 0 {
		t.Fatalf("reused %d of %d component plans across a grid shift, want none of at least 3", inc.Reused, inc.Components)
	}
	if inc.ZStar != full.ZStar || inc.Alpha != full.Alpha {
		t.Fatalf("Z*/alpha differ: inc (%v, %v) full (%v, %v)", inc.ZStar, inc.Alpha, full.ZStar, full.Alpha)
	}
	for _, pair := range []struct {
		name      string
		inc, full *Assignment
	}{{"LP", inc.LP, full.LP}, {"LPDAR", inc.LPDAR, full.LPDAR}} {
		if ib, fb := assignmentBytes(pair.inc), assignmentBytes(pair.full); ib != fb {
			t.Fatalf("%s differs across grid shift:\ninc:\n%s\nfull:\n%s", pair.name, ib, fb)
		}
	}
	// The refreshed cache is on the new grid: the same instance again reuses
	// every component.
	again, _, err := MaxThroughputIncremental(instanceAt(t, g, churned, 1, 7), cfg, next)
	if err != nil {
		t.Fatal(err)
	}
	if again.Reused != again.Components {
		t.Fatalf("reused %d of %d component plans on an unchanged grid", again.Reused, again.Components)
	}
	if ab, fb := assignmentBytes(again.LPDAR), assignmentBytes(full.LPDAR); ab != fb {
		t.Fatalf("LPDAR differs on reuse:\nreused:\n%s\nfull:\n%s", ab, fb)
	}
}

// TestIncrementalZStarChangeInvalidatesStage2: when churn moves the
// global Z*, cached stage-2 plans are unusable (the fairness floor moved)
// and the incremental path must still agree with the full solve.
func TestIncrementalZStarChangeInvalidatesStage2(t *testing.T) {
	g, jobs := bottleneckedClusters(t, 2, 0, 3)
	cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts()}
	_, cache, err := MaxThroughputIncremental(instanceAt(t, g, jobs, 0, 8), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the bottleneck job: the global Z* jumps to the next-smallest
	// component optimum.
	churned := jobs[:len(jobs)-1]
	full, err := MaxThroughput(instanceAt(t, g, churned, 0, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, next, err := MaxThroughputIncremental(instanceAt(t, g, churned, 0, 8), cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ZStar != full.ZStar {
		t.Fatalf("Z* differs: inc %v full %v", inc.ZStar, full.ZStar)
	}
	if inc.Reused != 0 {
		t.Fatalf("reused %d stage-2 plans across a Z* change", inc.Reused)
	}
	if ib, fb := assignmentBytes(inc.LPDAR), assignmentBytes(full.LPDAR); ib != fb {
		t.Fatalf("LPDAR differs after Z* change:\ninc:\n%s\nfull:\n%s", ib, fb)
	}
	if next.ZStar != inc.ZStar {
		t.Fatalf("refreshed cache pins stale Z* %v", next.ZStar)
	}
}

// TestIncrementalChurnSequence: a longer arrival/completion sequence with
// grid advance, incremental vs full byte-identity at every step.
func TestIncrementalChurnSequence(t *testing.T) {
	g, jobs := bottleneckedClusters(t, 3, 0, 21)
	cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts()}
	var cache *PlanCache
	live := append([]job.Job(nil), jobs...)
	nextID := 200
	for step := 0; step < 4; step++ {
		switch step {
		case 1: // arrival in cluster 2
			live = append(live, job.Job{
				ID: job.ID(nextID), Src: jobs[6].Src, Dst: jobs[6].Dst,
				Size: 3, Start: 1, End: 5,
			})
			nextID++
		case 2: // completion in cluster 0
			live = append(live[:1], live[2:]...)
		case 3: // simultaneous arrival + completion
			live = append(live[:4], live[5:]...)
			live = append(live, job.Job{
				ID: job.ID(nextID), Src: jobs[0].Src, Dst: jobs[0].Dst,
				Size: 2, Start: 2, End: 5,
			})
			nextID++
		}
		full, err := MaxThroughput(instanceAt(t, g, live, 0, 8), cfg)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		var inc *Result
		inc, cache, err = MaxThroughputIncremental(instanceAt(t, g, live, 0, 8), cfg, cache)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if inc.ZStar != full.ZStar || inc.Alpha != full.Alpha {
			t.Fatalf("step %d: Z*/alpha differ: inc (%v, %v) full (%v, %v)", step, inc.ZStar, inc.Alpha, full.ZStar, full.Alpha)
		}
		if ib, fb := assignmentBytes(inc.LPDAR), assignmentBytes(full.LPDAR); ib != fb {
			t.Fatalf("step %d: LPDAR differs:\ninc:\n%s\nfull:\n%s", step, ib, fb)
		}
		if step > 0 && inc.Reused == 0 && inc.Components > 2 {
			t.Fatalf("step %d: no reuse across single-component churn (%d components)", step, inc.Components)
		}
	}
}

// TestIncrementalMonolithicIsOneBlock: Monolithic chooses the partition, not
// another path — the cache that comes back holds the one block that is the
// instance, and the same instance again reuses it for the same bytes.
func TestIncrementalMonolithicIsOneBlock(t *testing.T) {
	g, jobs := bottleneckedClusters(t, 2, 0, 1)
	cfg := Config{Alpha: 0.1, AlphaGrowth: 0.1, Solver: partialDantzigOpts(), Monolithic: true}
	inst := instanceAt(t, g, jobs, 0, 8)
	res, cache, err := MaxThroughputIncremental(inst, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 || res.Reused != 0 || cache == nil || len(cache.Plans) != 1 {
		t.Fatalf("monolithic solve: %d components, %d reused, cache %+v", res.Components, res.Reused, cache)
	}
	for _, cp := range cache.Plans {
		if cp.Inst != inst {
			t.Fatal("the cached block is a copy of the instance")
		}
	}
	again, _, err := MaxThroughputIncremental(instanceAt(t, g, jobs, 0, 8), cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if again.Reused != 1 || assignmentBytes(again.LPDAR) != assignmentBytes(res.LPDAR) {
		t.Fatalf("re-solve reused %d of 1 block; same bytes: %v", again.Reused, assignmentBytes(again.LPDAR) == assignmentBytes(res.LPDAR))
	}
}
