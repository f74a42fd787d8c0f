package controller

import (
	"math/rand"
	"testing"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/schedule"
	"wavesched/internal/telemetry"
	"wavesched/internal/workload"
)

// intakeScenario returns a 12-node network and ten jobs over it.
func intakeScenario(t *testing.T) (*netgraph.Graph, []job.Job) {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 12, LinkPairs: 24, Wavelengths: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 10, Seed: 6, GBToDemand: 0.1, MinWindow: 2, MaxWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, jobs
}

// pathCacheMisses reads the process-wide path-cache miss counter.
func pathCacheMisses() int64 {
	return telemetry.Default().Counter("schedule_pathcache_misses_total", "").Value()
}

// submitAll submits jobs to c, failing the test on a refusal.
func submitAll(t *testing.T, c *Controller, jobs []job.Job) {
	t.Helper()
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitPricesPathSets: Submit looks every job's path set up, so an
// epoch that follows with no link event in between — admission's route
// checks and the instance build — computes none.
func TestSubmitPricesPathSets(t *testing.T) {
	for _, policy := range []Policy{PolicyMaxThroughput, PolicyRET, PolicyReject} {
		g, jobs := intakeScenario(t)
		c := newCtrl(t, g, policy)
		before := pathCacheMisses()
		submitAll(t, c, jobs)
		if pathCacheMisses() == before {
			t.Fatalf("policy %d: Submit computed no path set", policy)
		}
		before = pathCacheMisses()
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if st := c.EpochStats()[0]; st.Admitted == 0 {
			t.Fatalf("policy %d: the epoch admitted nothing: %+v", policy, st)
		}
		if d := pathCacheMisses() - before; d != 0 {
			t.Errorf("policy %d: the epoch after Submit computed %d path sets, want 0", policy, d)
		}
	}
}

// TestLinkDownAfterSubmitReprices: a link failure between Submit and the
// epoch re-keys the path sets, so the epoch computes them under the
// residual topology, and its plan and records are bit for bit those of a
// controller whose cache never saw the intake lookups.
func TestLinkDownAfterSubmitReprices(t *testing.T) {
	g, jobs := intakeScenario(t)
	run := func(forget bool) (*Controller, int64) {
		c := newCtrl(t, g, PolicyMaxThroughput)
		submitAll(t, c, jobs)
		if err := c.LinkDown(netgraph.EdgeID(0), 0); err != nil {
			t.Fatal(err)
		}
		if forget {
			c.pathCache = schedule.NewPathCache()
		}
		before := pathCacheMisses()
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		return c, pathCacheMisses() - before
	}
	priced, misses := run(false)
	if misses == 0 {
		t.Error("the epoch after a LinkDown computed no path set")
	}
	cold, _ := run(true)
	planA, _, _, okA := priced.CommittedSchedule()
	planB, _, _, okB := cold.CommittedSchedule()
	if !okA || !okB {
		t.Fatalf("no commitment (priced %v, cold %v)", okA, okB)
	}
	if len(planA.X) != len(planB.X) {
		t.Fatalf("plans cover %d and %d jobs", len(planA.X), len(planB.X))
	}
	for k := range planA.X {
		if a, b := planA.Inst.JobPaths[k], planB.Inst.JobPaths[k]; len(a) != len(b) {
			t.Fatalf("job %d: %d paths, %d without intake pricing", k, len(a), len(b))
		}
		for p := range planA.X[k] {
			if a, b := planA.Inst.JobPaths[k][p].Key(), planB.Inst.JobPaths[k][p].Key(); a != b {
				t.Errorf("job %d path %d: %s, %s without intake pricing", k, p, a, b)
			}
			for j := range planA.X[k][p] {
				if planA.X[k][p][j] != planB.X[k][p][j] {
					t.Errorf("job %d path %d slice %d: %v, %v without intake pricing", k, p, j, planA.X[k][p][j], planB.X[k][p][j])
				}
			}
		}
	}
	for i := 0; i < 20 && !priced.Idle(); i++ {
		if err := priced.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := cold.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := recordsBytes(priced.Records()), recordsBytes(cold.Records()); a != b {
		t.Errorf("records differ:\npriced at intake:\n%s\nwithout:\n%s", a, b)
	}
}

// TestHasRouteMatchesShortest: the path-set lookup answers the route check
// as the Dijkstra over the dead and failed links did, under K-shortest
// enumeration and under column generation's seed sets, on random graphs
// with unlit links and random down sets; so does LinkDown's connected.
func TestHasRouteMatchesShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		g := netgraph.New("random")
		for i := 0; i < n; i++ {
			g.AddNode("", float64(i), 0)
		}
		for e := 0; e < 2*n; e++ {
			a, b := netgraph.NodeID(rng.Intn(n)), netgraph.NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			if _, err := g.AddEdge(a, b, rng.Intn(3), 10); err != nil { // a third never lit
				t.Fatal(err)
			}
		}
		for _, colgen := range []bool{false, true} {
			c, err := New(g, Config{Tau: 1, SliceLen: 1, K: 1 + rng.Intn(4), ColumnGen: colgen})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < g.NumEdges(); e++ {
				if rng.Intn(4) == 0 {
					if err := c.LinkDown(netgraph.EdgeID(e), 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			dead := map[netgraph.EdgeID]bool{}
			for _, e := range g.Edges() {
				if e.Wavelengths == 0 {
					dead[e.ID] = true
				}
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a == b {
						continue // Validate refuses such a job
					}
					j := job.Job{Src: netgraph.NodeID(a), Dst: netgraph.NodeID(b)}
					_, want := paths.Shortest(g, j.Src, j.Dst, paths.UnitCost, union(dead, c.down), nil)
					if got := c.hasRoute(j); got != want {
						t.Fatalf("trial %d colgen=%v: hasRoute(%d->%d) = %v, Dijkstra over the dead and down links says %v",
							trial, colgen, a, b, got, want)
					}
					if got := c.connected(j); got != want {
						t.Fatalf("trial %d: connected(%d->%d) = %v, Dijkstra over the dead and down links says %v",
							trial, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestLinkDownDropsExactlyTheUnroutable: on random graphs under random
// failure and repair sequences, after each LinkDown every active job that
// survives has a shortest route over the residual topology, and every job
// that event dropped has none. Windows outlast the run, so no drop is for
// want of time. A first, fixed case keeps a plan that crosses an earlier
// failed link in force: the replan after the first failure cannot solve,
// so the carry tier keeps the old plan, which still routes over the dead
// link at the next failure, and the job must still be dropped.
func TestLinkDownDropsExactlyTheUnroutable(t *testing.T) {
	g := faultDiamond(t, 1)
	c, err := New(g, Config{Tau: 2, SliceLen: 1, K: 2, Policy: PolicyMaxThroughput})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(job.Job{ID: 1, Src: 0, Dst: 3, Size: 50, Start: 0, End: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// Every replan fails from here on: the carry tier keeps the old plan.
	c.cfg.Solver.TimeLimit = time.Nanosecond
	for i, hop := range [][2]netgraph.NodeID{{0, 1}, {2, 3}} { // a→u, then l→b
		for _, e := range g.Edges() {
			if e.From == hop[0] && e.To == hop[1] {
				if err := c.LinkDown(e.ID, 0.5+0.2*float64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if ds := c.Disruptions(); len(ds) == 0 || ds[len(ds)-1].Outcome != DisruptedDropped {
		t.Fatalf("disruptions %+v: the job with both routes cut was not dropped", ds)
	}

	rng := rand.New(rand.NewSource(17))
	drops, survivors := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(6)
		g := netgraph.New("random")
		for i := 0; i < n; i++ {
			g.AddNode("", float64(i), 0)
		}
		for e := 0; e < 2*n; e++ {
			a, b := netgraph.NodeID(rng.Intn(n)), netgraph.NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			if _, err := g.AddEdge(a, b, rng.Intn(3), 10); err != nil { // a third never lit
				t.Fatal(err)
			}
		}
		if g.NumEdges() == 0 {
			continue
		}
		c := newCtrl(t, g, PolicyMaxThroughput)
		for i := 0; i < 3*n; i++ {
			a, b := netgraph.NodeID(rng.Intn(n)), netgraph.NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			c.Submit(job.Job{ID: job.ID(i + 1), Src: a, Dst: b, Size: 1 + 4*rng.Float64(), Start: 0, End: 100})
		}
		for epoch := 0; epoch < 6; epoch++ {
			if err := c.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			at := c.Now() - 1 // the period RunEpoch just committed
			for ev := 0; ev < 3; ev++ {
				at += 0.3 * rng.Float64()
				if down := c.DownLinks(); len(down) > 0 && rng.Intn(3) == 0 {
					if err := c.LinkUp(down[rng.Intn(len(down))], at); err != nil {
						t.Fatal(err)
					}
					continue
				}
				e := netgraph.EdgeID(rng.Intn(g.NumEdges()))
				before := len(c.Disruptions())
				if err := c.LinkDown(e, at); err != nil {
					t.Fatal(err)
				}
				residual, err := g.WithLinksDown(c.DownLinks()...)
				if err != nil {
					t.Fatal(err)
				}
				dead := map[netgraph.EdgeID]bool{}
				for _, edge := range residual.Edges() {
					if edge.Wavelengths == 0 {
						dead[edge.ID] = true
					}
				}
				routed := func(j job.Job) bool {
					_, ok := paths.Shortest(residual, j.Src, j.Dst, paths.UnitCost, dead, nil)
					return ok
				}
				for _, aj := range c.active {
					if !aj.retired {
						survivors++
						if !routed(aj.orig) {
							t.Fatalf("trial %d: job %d survives the failure of edge %d at t=%g with no route", trial, aj.orig.ID, e, at)
						}
					}
				}
				for _, d := range c.Disruptions()[before:] {
					if d.Outcome != DisruptedDropped {
						continue
					}
					drops++
					var dropped *job.Job
					for _, aj := range c.active {
						if aj.orig.ID == d.JobID {
							dropped = &aj.orig
						}
					}
					if dropped == nil {
						t.Fatalf("trial %d: job %d dropped but not among the active jobs", trial, d.JobID)
					}
					if routed(*dropped) {
						t.Fatalf("trial %d: job %d dropped at the failure of edge %d at t=%g, but a route remains", trial, d.JobID, e, at)
					}
				}
			}
		}
	}
	if drops == 0 || survivors == 0 {
		t.Fatalf("%d drops and %d surviving jobs checked: the sequences exercise nothing", drops, survivors)
	}
	t.Logf("%d drops, %d surviving jobs checked", drops, survivors)
}
