package controller

import (
	"fmt"
	"io"
	"log/slog"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
)

// churnClusters builds nClusters disjoint 4-node rings and a per-cluster
// job list whose start times stagger into the future, so at any epoch
// some components are actively transferring while others are still
// entirely ahead of the clock.
func churnClusters(t *testing.T, nClusters int) (*netgraph.Graph, []job.Job, [][]netgraph.NodeID) {
	t.Helper()
	g := netgraph.New("churn-clusters")
	nodes := make([][]netgraph.NodeID, nClusters)
	var jobs []job.Job
	id := 1
	for c := 0; c < nClusters; c++ {
		nodes[c] = make([]netgraph.NodeID, 4)
		for i := 0; i < 4; i++ {
			nodes[c][i] = g.AddNode(fmt.Sprintf("c%d-n%d", c, i), float64(c), float64(i))
		}
		for i := 0; i < 4; i++ {
			if err := g.AddPair(nodes[c][i], nodes[c][(i+1)%4], 2, 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			start := float64(2*c + i) // cluster c's work begins at t=2c
			jobs = append(jobs, job.Job{
				ID: job.ID(id), Src: nodes[c][i], Dst: nodes[c][(i+2)%4],
				Size: 3 + float64(c), Start: start, End: start + 4,
			})
			id++
		}
	}
	return g, jobs, nodes
}

// shippedSolver is the solver configuration `serve` runs with (same knobs
// as the schedule package's partialDantzigOpts).
func shippedSolver() lp.Options {
	return lp.Options{MaxIter: 200000, Pricing: lp.PartialDantzig}
}

// runChurnScenario drives one controller through a churn sequence —
// staggered arrivals, natural completions, a late extra arrival, and a
// link failure/repair — and returns the final records.
func runChurnScenario(t *testing.T) []Record {
	t.Helper()
	g, jobs, nodes := churnClusters(t, 4)
	c, err := New(g, Config{
		Tau: 1, SliceLen: 1, K: 2, Policy: PolicyMaxThroughput,
		Solver: shippedSolver(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	nextID := job.ID(100)
	for i := 0; i < 25 && !c.Idle(); i++ {
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 1: // churn: a fresh arrival into cluster 1's component
			if err := c.Submit(job.Job{
				ID: nextID, Src: nodes[1][0], Dst: nodes[1][2],
				Size: 2, Start: c.Now() + 1, End: c.Now() + 4,
			}); err != nil {
				t.Fatal(err)
			}
			nextID++
		case 3: // churn: an arrival into the farthest-future cluster
			if err := c.Submit(job.Job{
				ID: nextID, Src: nodes[3][1], Dst: nodes[3][3],
				Size: 2, Start: c.Now() + 2, End: c.Now() + 5,
			}); err != nil {
				t.Fatal(err)
			}
			nextID++
		case 5: // a link event swaps the residual graph
			if err := c.LinkDown(netgraph.EdgeID(0), c.Now()+0.25); err != nil {
				t.Fatal(err)
			}
		case 7:
			if err := c.LinkUp(netgraph.EdgeID(0), c.Now()+0.25); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c.Records()
}

// TestChurnRunToRunDeterministic: two identical runs of the churn
// scenario produce identical record bytes.
func TestChurnRunToRunDeterministic(t *testing.T) {
	a := runChurnScenario(t)
	b := runChurnScenario(t)
	if len(a) == 0 {
		t.Fatal("scenario produced no records")
	}
	if recordsBytes(a) != recordsBytes(b) {
		t.Fatal("controller runs are not deterministic")
	}
}

// TestPriorityRankOrdersAdmission: under PolicyReject with a capacity
// squeeze, a rank function must let a later-arriving critical job beat
// earlier scavenger arrivals into the feasible admission prefix.
func TestPriorityRankOrdersAdmission(t *testing.T) {
	build := func(rank func(job.Job) int) *Controller {
		g := netgraph.New("prio")
		a := g.AddNode("a", 0, 0)
		b := g.AddNode("b", 1, 0)
		if err := g.AddPair(a, b, 1, 10); err != nil {
			t.Fatal(err)
		}
		c, err := New(g, Config{
			Tau: 1, SliceLen: 1, K: 1, Policy: PolicyReject,
			Solver: shippedSolver(), PriorityRank: rank,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		// One wavelength for two slices: capacity 2. Each job needs 2 —
		// only one of them fits.
		for id := 1; id <= 2; id++ {
			if err := c.Submit(job.Job{
				ID: job.ID(id), Src: a, Dst: b, Size: 2,
				Arrival: float64(id-1) * 0.1, Start: 1, End: 3,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	stateOf := func(c *Controller, id job.ID) JobState {
		for _, st := range c.JobStatuses() {
			if st.Job.ID == id {
				return st.State
			}
		}
		t.Fatalf("job %d has no status", id)
		return ""
	}

	// Arrival order: job 1 first — without a rank it wins the prefix.
	c := build(nil)
	if s1, s2 := stateOf(c, 1), stateOf(c, 2); s1 != JobActive || s2 != JobRejected {
		t.Fatalf("arrival order: job 1 %q job 2 %q, want active/rejected", s1, s2)
	}

	// Rank job 2 critical (0), job 1 scavenger (2): job 2 must win.
	c = build(func(j job.Job) int {
		if j.ID == 2 {
			return 0
		}
		return 2
	})
	if s1, s2 := stateOf(c, 1), stateOf(c, 2); s2 != JobActive || s1 != JobRejected {
		t.Fatalf("ranked: job 1 %q job 2 %q, want rejected/active", s1, s2)
	}
}
