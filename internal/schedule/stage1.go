package schedule

import (
	"fmt"
	"time"

	"wavesched/internal/lp"
	"wavesched/internal/telemetry"
)

// Stage1Result is the outcome of the maximum-concurrent-throughput LP.
type Stage1Result struct {
	ZStar float64     // Z*: the maximum concurrent throughput
	Frac  *Assignment // the fractional stage-1 solution
	Iters int         // simplex pivots; over a partition, summed over the blocks stage 1 solved
	Time  time.Duration
}

// Overloaded reports whether the network cannot carry all demands in full
// within their windows (the paper calls the network overloaded when
// Z* ≤ 1).
func (r *Stage1Result) Overloaded() bool { return r.ZStar <= 1 }

// SolveStage1 solves the stage-1 MCF problem (eqs. 1–5): maximize Z such
// that every job transfers exactly Z·D_i within its window and no link
// carries more than its wavelength count on any slice. Bandwidth is
// treated as infinitely divisible (no integrality).
func SolveStage1(inst *Instance, opts lp.Options) (*Stage1Result, error) {
	sp := opts.Tracer.Start("schedule.stage1")
	opts.Tracer = sp.Tracer()
	res, err := solveStage1(inst, opts)
	endSpan(sp, err, func() []telemetry.Attr {
		rows, dropped := capRowCounts(inst, nil)
		return []telemetry.Attr{
			telemetry.KV("jobs", inst.NumJobs()),
			telemetry.KV("zstar", res.ZStar),
			telemetry.KV("iters", res.Iters),
			telemetry.KV("overloaded", res.Overloaded()),
			telemetry.KV("cap_rows", rows),
			telemetry.KV("cap_rows_dropped", dropped),
		}
	})
	return res, err
}

func solveStage1(inst *Instance, opts lp.Options) (*Stage1Result, error) {
	start := time.Now()
	m, z, xvars, _, err := buildStage1Model("stage1-mcf", inst, inst.closedCells())
	if err != nil {
		return nil, err
	}

	sol, err := m.SolveWith(opts)
	if err != nil {
		return nil, fmt.Errorf("schedule: stage 1: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("schedule: stage 1: solver returned %v", sol.Status)
	}
	a := extractAssignment(inst, xvars, sol)
	res := &Stage1Result{
		ZStar: sol.Value(z),
		Frac:  a,
		Iters: sol.Iters,
		Time:  time.Since(start),
	}
	telStage1Solves.Inc()
	telStage1Seconds.Observe(res.Time.Seconds())
	telStage1ZStar.Set(res.ZStar)
	return res, nil
}

// buildStage1Model assembles the stage-1 MCF program (eqs. 1–5) and returns
// the model together with the Z and x variables and its capacity-row layout.
// The coupling rows are the first rows of the model (row k is job k's); the
// capacity rows follow, laid out by cells, or every one of them when cells is
// nil (addCapacityRows).
func buildStage1Model(name string, inst *Instance, cells *capCells) (*lp.Model, lp.VarID, flowVars, *capCells, error) {
	m := lp.NewModel(name, lp.Maximize)
	z := m.AddVar("Z", 0, lp.Inf, 1)
	xvars, err := addFlowVars(m, inst, nil, 0)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	// Per-job coupling (2): Σ_j Σ_p x·LEN(j) − D_i·Z = 0.
	for k, jb := range inst.Jobs {
		r := m.AddRow("", lp.EQ, 0)
		forEachVar(inst, xvars, k, func(p, j int, v lp.VarID) {
			m.AddTerm(r, v, inst.Grid.Len(j))
		})
		m.AddTerm(r, z, -jb.Size)
	}
	return m, z, xvars, addCapacityRows(m, inst, xvars, cells), nil
}

// Stage1ZStar returns the stage-1 result the pipeline continues from. When
// GeneratePaths proved Z* for the instance, that is the proof — ZStar
// alone, no Frac and no solve: stage-2 discovery only appends paths and Z*
// is already optimal over all of them, so a cold solve over the grown pool
// would return the same value up to the pricing tolerance. Otherwise it is
// SolveStage1.
func Stage1ZStar(inst *Instance, opts lp.Options) (*Stage1Result, error) {
	if inst.provenZ == nil {
		return SolveStage1(inst, opts)
	}
	telStage1Certified.Inc()
	telStage1ZStar.Set(*inst.provenZ)
	return &Stage1Result{ZStar: *inst.provenZ}, nil
}

// flowVars records the LP variable of each (job, path, slice) triple, or
// -1 where the slice is outside the job's window.
type flowVars [][][]lp.VarID

// addFlowVars creates the x_i(p,j) ≥ 0 variables for every job, path, and
// in-window slice. extendedLast, when non-nil, overrides each job's last
// usable slice (the RET extension). objCoef is the objective coefficient
// every variable starts with; callers with per-variable objectives pass 0
// and set them afterwards with SetObj.
func addFlowVars(m *lp.Model, inst *Instance, extendedLast []int, objCoef float64) (flowVars, error) {
	xv := make(flowVars, inst.NumJobs())
	ns := inst.Grid.Num()
	for k := range inst.Jobs {
		first, last := inst.Window(k)
		if extendedLast != nil {
			last = extendedLast[k]
			if last >= ns {
				last = ns - 1
			}
		}
		if last < first {
			return nil, fmt.Errorf("schedule: job %d has empty usable window", inst.Jobs[k].ID)
		}
		xv[k] = make([][]lp.VarID, len(inst.JobPaths[k]))
		for p := range inst.JobPaths[k] {
			xv[k][p] = make([]lp.VarID, ns)
			for j := 0; j < ns; j++ {
				if j < first || j > last {
					xv[k][p][j] = -1
					continue
				}
				xv[k][p][j] = m.AddVar("", 0, lp.Inf, objCoef)
			}
		}
	}
	return xv, nil
}

// forEachVar visits the live variables of job index k.
func forEachVar(inst *Instance, xv flowVars, k int, fn func(p, j int, v lp.VarID)) {
	for p := range xv[k] {
		for j, v := range xv[k][p] {
			if v >= 0 {
				fn(p, j, v)
			}
		}
	}
}

// addCapacityRows adds constraint (3): for every edge and slice, the sum
// of assignments of paths crossing the edge is at most the edge's
// wavelength count, and returns the layout of those rows. Rows are only
// emitted for (edge, slice) pairs that some variable can load. Every loaded
// pair gets its row, in the order the loop below first meets it, unless the
// model is given the layout of a closed one: it then gets the rows of
// addClosedCapacityRows instead.
func addCapacityRows(m *lp.Model, inst *Instance, xv flowVars, cells *capCells) *capCells {
	if cells != nil {
		addClosedCapacityRows(m, inst, xv, cells)
		return cells
	}
	ns, nE, base := inst.Grid.Num(), inst.G.NumEdges(), m.NumRows()
	cells = &capCells{row: make([]int32, ns*nE)}
	for k := range inst.Jobs {
		for p, path := range inst.JobPaths[k] {
			for j := 0; j < ns; j++ {
				v := xv[k][p][j]
				if v < 0 {
					continue
				}
				for _, e := range path.Edges {
					r := &cells.row[j*nE+int(e)]
					if *r == 0 {
						m.AddRow("", lp.LE, float64(inst.Capacity(e, j)))
						cells.kept = append(cells.kept, capKey{e, j})
						*r = int32(len(cells.kept))
					}
					m.AddTerm(lp.RowID(base+int(*r)-1), v, 1)
				}
			}
		}
	}
	return cells
}

// extractAssignment reads the x values out of an LP solution.
func extractAssignment(inst *Instance, xv flowVars, sol *lp.Solution) *Assignment {
	a := NewAssignment(inst)
	for k := range xv {
		for p := range xv[k] {
			for j, v := range xv[k][p] {
				if v >= 0 {
					a.X[k][p][j] = sol.Value(v)
				}
			}
		}
	}
	return a
}
