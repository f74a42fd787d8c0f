package controller

import (
	"math/rand"
	"testing"

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
