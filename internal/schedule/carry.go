package schedule

import (
	"math"
	"slices"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/paths"
	"wavesched/internal/timeslice"
)

// Stage2Carry is a controller's memory of its last stage-2 solves: the final
// basis of every component its last MaxThroughput solved, with what each
// column and row of that component's model means — Z_i and the coupling row
// by job ID, x_i(p, j) by job ID, path and slice, a capacity row and its
// slack by (edge, slice). Its MaxThroughput starts each stage-2 solve from
// the part of those bases its jobs still have, carried across the shift of
// the slice grid, and then holds its own final bases. Stage 1 stays cold.
//
// A start only moves pivots: every stage-2 solve ends with the
// lexicographic phase, whose plan does not depend on where the solve began
// (stage2Secondary), so the plans are the ones a cold solve returns. The
// zero value holds nothing. A Stage2Carry is not safe for concurrent
// MaxThroughput calls.
type Stage2Carry struct {
	grid  *timeslice.Grid // the grid the carried models were built on
	comps []stage2Model
	jobs  map[job.ID]carriedJob
}

// stage2Model is one solved stage-2 model as the carry keeps it: the
// component instance, its flow variables and capacity-row layout (Z_k is
// column k and job k's coupling row is row k, buildStage2Model's layout),
// its size and its final basis.
type stage2Model struct {
	inst         *Instance
	xv           flowVars
	cells        *capCells
	nVars, nRows int
	basis        *lp.Basis
}

// carriedJob is where a job's columns sit in the carry: job k of comps[comp].
type carriedJob struct{ comp, k int }

// MaxThroughput is the package-level MaxThroughput with each stage-2 solve
// started from the bases the carry holds of its jobs. It leaves the carry
// holding the final bases of this call's stage-2 solves, or, when the call
// fails or solves no stage-2 LP, as it was.
func (c *Stage2Carry) MaxThroughput(inst *Instance, cfg Config) (*Result, error) {
	return maxThroughput(inst, nil, cfg, c)
}

// start returns the carried basis of inst's jobs on the stage-2 model of
// inst, m — flow variables xv, capacity rows laid out by cells — or nil when
// the carry holds nothing. Each component of the last call that holds one of
// the jobs is a source; what no source maps, a component of jobs the carry
// never saw included, starts on its rows' own columns (lp.Remap), and the
// warm start squares the whole.
func (c *Stage2Carry) start(inst *Instance, m *lp.Model, xv flowVars, cells *capCells) *lp.Basis {
	if c == nil || len(c.comps) == 0 || c.comps[0].inst.G.NumEdges() != inst.G.NumEdges() {
		return nil
	}
	d, ok := sliceShift(c.grid, inst.Grid)
	if !ok {
		return nil
	}
	var from []lp.Carried
	var fromComp []int // the carried component of each source
	for k, jb := range inst.Jobs {
		at, ok := c.jobs[jb.ID]
		if !ok {
			continue
		}
		src := slices.Index(fromComp, at.comp)
		if src < 0 {
			old := &c.comps[at.comp]
			src = len(from)
			fromComp = append(fromComp, at.comp)
			from = append(from, lp.Carried{Basis: old.basis, Vars: unmapped(old.nVars), Rows: unmapped(old.nRows)})
		}
		old, vars := &c.comps[at.comp], from[src].Vars
		vars[at.k], from[src].Rows[at.k] = k, k
		for p, path := range inst.JobPaths[k] {
			op := pathIndex(old.inst.JobPaths[at.k], path, p)
			if op < 0 {
				continue
			}
			ox := old.xv[at.k][op]
			for j, v := range xv[k][p] {
				if v >= 0 && j+d >= 0 && j+d < len(ox) && ox[j+d] >= 0 {
					vars[ox[j+d]] = int(v)
				}
			}
		}
	}
	nE, ns, nJobs := inst.G.NumEdges(), inst.Grid.Num(), inst.NumJobs()
	for src, ci := range fromComp {
		old, rows := &c.comps[ci], from[src].Rows
		base := old.inst.NumJobs()
		for r, cell := range old.cells.kept {
			if j := cell.j - d; j >= 0 && j < ns {
				if nr := cells.row[j*nE+int(cell.e)]; nr > 0 {
					rows[base+r] = nJobs + int(nr) - 1
				}
			}
		}
	}
	return lp.Remap(m, from...)
}

// record makes the carry hold the final stage-2 models of one call's
// components, solved over grid, in place of what it held.
func (c *Stage2Carry) record(grid *timeslice.Grid, lads []rung) {
	clear(c.comps)
	c.grid, c.comps = grid, c.comps[:0]
	if c.jobs == nil {
		c.jobs = make(map[job.ID]carriedJob)
	}
	clear(c.jobs)
	for _, l := range lads {
		sm := l.final
		if sm.basis == nil {
			continue
		}
		for k, jb := range sm.inst.Jobs {
			c.jobs[jb.ID] = carriedJob{comp: len(c.comps), k: k}
		}
		c.comps = append(c.comps, sm)
	}
}

// sliceShift returns d such that slice j of grid to is slice j+d of grid
// from, or false when the two are not cut alike: the same slice length, and
// slice 0 of to starting on a slice boundary of from. The controller's grids
// start at the planning instant and are cut every SliceLen, which divides τ.
func sliceShift(from, to *timeslice.Grid) (int, bool) {
	l := from.Len(0)
	if math.Abs(to.Len(0)-l) > 1e-9*l {
		return 0, false
	}
	d := math.Round((to.Start(0) - from.Start(0)) / l)
	if math.Abs(from.Start(0)+d*l-to.Start(0)) > 1e-9*math.Max(1, math.Abs(to.Start(0))) {
		return 0, false
	}
	return int(d), true
}

// pathIndex returns the index in ps of the path over path's edges, trying
// index hint first (path sets come out of the path cache in one order), or
// −1.
func pathIndex(ps []paths.Path, path paths.Path, hint int) int {
	if hint < len(ps) && slices.Equal(ps[hint].Edges, path.Edges) {
		return hint
	}
	for i := range ps {
		if slices.Equal(ps[i].Edges, path.Edges) {
			return i
		}
	}
	return -1
}

// unmapped returns n indices, each −1: nothing carried yet.
func unmapped(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}
