package schedule

import (
	"math"
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

// rollingInstances is a controller's view of jobs over instants 0, 1, …,
// n−1: at each, the jobs known by then (start at most two slices ahead)
// whose window still holds a slice, clipped to start at the instant, with a
// tenth of their size delivered per instant gone by, on a unit grid from
// the instant to the last end.
func rollingInstances(t *testing.T, g *netgraph.Graph, jobs []job.Job, n int) []*Instance {
	t.Helper()
	var out []*Instance
	for now := 0.0; now < float64(n); now++ {
		var live []job.Job
		end := now + 1
		for _, jb := range jobs {
			if jb.Start > now+2 || jb.End-math.Max(jb.Start, now) < 1 {
				continue
			}
			if jb.Start < now {
				jb.Size *= math.Pow(0.9, now-jb.Start)
				jb.Start, jb.Arrival = now, now
			}
			live = append(live, jb)
			end = math.Max(end, jb.End)
		}
		if len(live) == 0 {
			continue
		}
		grid, err := timeslice.Uniform(now, 1, timeslice.CoverUntil(now, 1, end))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(g, grid, live, 3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, inst)
	}
	return out
}

// mergingJobs are jobs on a four-node line whose blocks merge and split as
// the instants go by: 0→1, 1→2 and 2→3 share no link and start apart, 0→3
// arrives later over all three, and two more follow it.
func mergingJobs() (*netgraph.Graph, []job.Job) {
	g := netgraph.Line(4, 2, 10)
	return g, []job.Job{
		{ID: 1, Src: 0, Dst: 1, Size: 3, Start: 0, End: 5},
		{ID: 2, Src: 2, Dst: 3, Size: 3, Start: 0, End: 5},
		{ID: 3, Src: 0, Dst: 3, Size: 4, Start: 3, End: 6},
		{ID: 4, Src: 1, Dst: 2, Size: 2, Start: 1, End: 4},
		{ID: 5, Src: 0, Dst: 1, Size: 3, Start: 5, End: 8},
		{ID: 6, Src: 2, Dst: 3, Size: 3, Start: 5, End: 8},
	}
}

// mergedBlocks counts the blocks of inst whose jobs sat in more than one
// block of prev: where a carried start joins several sources.
func mergedBlocks(prev, inst *Instance) int {
	if prev == nil {
		return 0
	}
	was := map[job.ID]int{}
	for b, c := range Decompose(prev, nil) {
		for _, jb := range c.Inst.Jobs {
			was[jb.ID] = b
		}
	}
	n := 0
	for _, c := range Decompose(inst, nil) {
		from := map[int]bool{}
		for _, jb := range c.Inst.Jobs {
			if b, ok := was[jb.ID]; ok {
				from[b] = true
			}
		}
		if len(from) > 1 {
			n++
		}
	}
	return n
}

// TestStage2CarryPlansAreColdPlans: a Stage2Carry taken through a rolling
// horizon — each instant a slice later, jobs finished and jobs new, blocks
// merging and splitting — starts stage-2 solves from what it holds and
// returns, instant by instant, the plans MaxThroughput returns cold: the
// fractional plan within 1e-7, LPD and LPDAR cell for cell. Decomposed and
// as one block, on disjoint clusters and on blocks that merge.
func TestStage2CarryPlansAreColdPlans(t *testing.T) {
	cg, cjobs := clusteredGraphJobs(t, 3, 6, 8, 7)
	mg, mjobs := mergingJobs()
	merged := 0
	for _, sc := range []struct {
		insts []*Instance
	}{
		{rollingInstances(t, cg, cjobs, 5)},
		{rollingInstances(t, mg, mjobs, 8)},
	} {
		for _, oneBlock := range []bool{false, true} {
			cfg := Config{AlphaGrowth: 0.1, Solver: solverOpts(), Monolithic: oneBlock}
			var carry Stage2Carry
			hits0 := readCounter(t, "lp_warmstart_hits_total")
			fallbacks0 := readCounter(t, "lp_warmstart_fallbacks_total")
			for i, inst := range sc.insts {
				warm, err := carry.MaxThroughput(inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := MaxThroughput(inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !oneBlock && i > 0 {
					merged += mergedBlocks(sc.insts[i-1], inst)
				}
				if warm.ZStar != cold.ZStar || warm.Alpha != cold.Alpha {
					t.Fatalf("one block %v, instant %d: Z* %v α %v carried, %v %v cold", oneBlock, i, warm.ZStar, warm.Alpha, cold.ZStar, cold.Alpha)
				}
				for k := range cold.LP.X {
					for p := range cold.LP.X[k] {
						for j, x := range cold.LP.X[k][p] {
							if math.Abs(warm.LP.X[k][p][j]-x) > 1e-7 || warm.LPD.X[k][p][j] != cold.LPD.X[k][p][j] ||
								warm.LPDAR.X[k][p][j] != cold.LPDAR.X[k][p][j] {
								t.Fatalf("one block %v, instant %d: job %d x[%d][%d] = %v/%v/%v carried, %v/%v/%v cold", oneBlock, i,
									inst.Jobs[k].ID, p, j, warm.LP.X[k][p][j], warm.LPD.X[k][p][j], warm.LPDAR.X[k][p][j],
									x, cold.LPD.X[k][p][j], cold.LPDAR.X[k][p][j])
							}
						}
					}
				}
			}
			if hits := readCounter(t, "lp_warmstart_hits_total") - hits0; hits < int64(len(sc.insts)-1) {
				t.Errorf("one block %v: %d warm starts over %d instants, want one per instant after the first at least", oneBlock, hits, len(sc.insts))
			}
			if fb := readCounter(t, "lp_warmstart_fallbacks_total") - fallbacks0; fb != 0 {
				t.Errorf("one block %v: %d warm starts fell back to a cold solve", oneBlock, fb)
			}
		}
	}
	if merged == 0 {
		t.Error("no block joined the jobs of several earlier blocks: the carry across blocks is not exercised")
	}
}
