package schedule

import (
	"fmt"

	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
)

// Constraint (3) has one row per loaded (edge, slice) cell, and most of them
// say nothing. Write vars(A) for the flow variables x_i(p, j) that load cell
// A = (e, j): every (job, path) with e on the path and j in the job's window.
// When another cell B of the same slice has vars(A) ⊆ vars(B) and a capacity
// C_B ≤ C_A, then — every coefficient being 1 and every x ≥ 0 —
//
//	Σ_{vars(A)} x  ≤  Σ_{vars(B)} x  ≤  C_B  ≤  C_A,
//
// so row A is implied by row B: A is dominated. The single-hop tail of a
// path behind its bottleneck, the parallel cells of a corridor every path
// crosses in full — about two capacity rows in three of the stage-1 and
// stage-2 LPs are of this kind. A closed model, one no column is ever
// appended to, is built without them: the same feasible set, hence the same
// optimum and (with the lexicographic phase) the same plan, from a basis a
// third the size.
//
// A model that grows keeps every row. Dominance is a statement about the
// columns present: a path appended later may load A and not B, and then A
// binds on its own. The column-generation masters get every row
// (addCapacityRows with closed off); so do SUB-RET, whose vertex still depends
// on the pivot path (DESIGN §10), and BottleneckAnalysis, which reports a
// shadow price per cell.

// capCells is the capacity-row layout of an instance's closed models.
type capCells struct {
	// kept lists the cells that get a row, in the order the build loop —
	// job, path, in-window slice, hop — first meets them.
	kept []capKey
	// termRow has one entry per step of that loop: the index into kept of
	// the cell the hop loads, or -1 when that cell is dominated.
	termRow []int32
	// dropped counts the dominated cells.
	dropped int
}

// closedCells returns the capacity-row layout of the instance's closed
// models, computing it on first use. Both stages of one solve share it. It is
// not synchronized: one goroutine solves an instance at a time, and parallel
// component solves each work on their own sub-instance.
func (in *Instance) closedCells() *capCells {
	if in.cells == nil {
		in.cells = newCapCells(in)
	}
	return in.cells
}

// newCapCells finds the dominated cells of every slice. A dominator of A
// holds A's first variable, so it is one of the other cells on that
// variable's path: for each of those, vars(A) ⊆ vars(B) is a count — how
// many of A's variables cross B's edge — compared with |vars(A)|. That is
// O(path length) per nonzero of the capacity rows, over flat arrays indexed
// by edge and by path. Paths are simple: none crosses an edge twice.
func newCapCells(in *Instance) *capCells {
	nE, ns := in.G.NumEdges(), in.Grid.Num()

	// Paths in build order, and for every edge the paths that cross it.
	nPaths, nHops, nTerms := 0, 0, 0
	for k := range in.JobPaths {
		nPaths += len(in.JobPaths[k])
		for _, path := range in.JobPaths[k] {
			nHops += len(path.Edges)
			nTerms += len(path.Edges) * (in.windows[k].last - in.windows[k].first + 1)
		}
	}
	pathWin := make([]window, 0, nPaths)
	pathEdges := make([][]netgraph.EdgeID, 0, nPaths)
	edgeStart := make([]int32, nE+1)
	for k := range in.JobPaths {
		for _, path := range in.JobPaths[k] {
			pathWin = append(pathWin, in.windows[k])
			pathEdges = append(pathEdges, path.Edges)
			for _, e := range path.Edges {
				edgeStart[e+1]++
			}
		}
	}
	for e := 0; e < nE; e++ {
		edgeStart[e+1] += edgeStart[e]
	}
	size := make([]int32, nE) // first the fill cursor of edgePaths, then |vars| per cell of a slice
	edgePaths := make([]int32, nHops)
	for q, edges := range pathEdges {
		for _, e := range edges {
			edgePaths[edgeStart[e]+size[e]] = int32(q)
			size[e]++
		}
	}
	clear(size)

	cells := &capCells{termRow: make([]int32, 0, nTerms)}
	// row[j·nE+e]: -1 for a dominated cell, later 1 + its index in kept.
	row := make([]int32, ns*nE)
	// cross[e]: of the variables of the cell in hand, how many cross edge e.
	cross := make([]int32, nE)
	// loaded: the edges some variable loads on the slice in hand; nLoaded:
	// the loaded cells of the slices done.
	loaded, nLoaded := make([]netgraph.EdgeID, 0, nE), 0
	for j := 0; j < ns; j++ {
		for q, w := range pathWin {
			if !w.holds(j) {
				continue
			}
			for _, e := range pathEdges[q] {
				if size[e] == 0 {
					loaded = append(loaded, e)
				}
				size[e]++
			}
		}
		for _, e := range loaded {
			vars := edgePaths[edgeStart[e]:edgeStart[e+1]]
			first := -1
			for _, q := range vars {
				if !pathWin[q].holds(j) {
					continue
				}
				if first < 0 {
					first = int(q)
				}
				for _, e2 := range pathEdges[q] {
					cross[e2]++
				}
			}
			capA, behind := in.Capacity(e, j), false
			for _, e2 := range pathEdges[first] {
				if e2 == e {
					behind = true
					continue
				}
				if cross[e2] != size[e] {
					continue // a variable of this cell does not load that one
				}
				capB := in.Capacity(e2, j)
				if capB > capA {
					continue
				}
				// Twins — the same variables at the same capacity — dominate
				// each other, and the first in build order stays: the earlier
				// hop of their common first path.
				if capB == capA && size[e2] == size[e] && behind {
					continue
				}
				row[j*nE+int(e)] = -1
				cells.dropped++
				break
			}
			for _, q := range vars {
				if !pathWin[q].holds(j) {
					continue
				}
				for _, e2 := range pathEdges[q] {
					cross[e2] = 0
				}
			}
		}
		for _, e := range loaded {
			size[e] = 0
		}
		nLoaded += len(loaded)
		loaded = loaded[:0]
	}

	cells.kept = make([]capKey, 0, nLoaded-cells.dropped)
	for q, edges := range pathEdges {
		for j := pathWin[q].first; j <= pathWin[q].last; j++ {
			for _, e := range edges {
				r := &row[j*nE+int(e)]
				if *r == 0 {
					cells.kept = append(cells.kept, capKey{e, j})
					*r = int32(len(cells.kept))
				}
				cells.termRow = append(cells.termRow, max(*r, 0)-1)
			}
		}
	}
	return cells
}

// addClosedCapacityRows adds constraint (3) to a model no column will be
// appended to: a row for every loaded (edge, slice) cell that is not
// dominated (see capCells), in the order addCapacityRows would emit them.
func addClosedCapacityRows(m *lp.Model, inst *Instance, xv flowVars) {
	cells := inst.closedCells()
	base := m.NumRows()
	for _, c := range cells.kept {
		m.AddRow(fmt.Sprintf("cap_e%d_t%d", c.e, c.j), lp.LE, float64(inst.Capacity(c.e, c.j)))
	}
	t := 0
	for k := range xv {
		for p, path := range inst.JobPaths[k] {
			for _, v := range xv[k][p] {
				if v < 0 {
					continue
				}
				for range path.Edges {
					if r := cells.termRow[t]; r >= 0 {
						m.AddTerm(lp.RowID(base+int(r)), v, 1)
					}
					t++
				}
			}
		}
	}
	telCapRowsDropped.Add(int64(cells.dropped))
}

// capRowCounts returns how many capacity rows a closed model of the instance
// carries and how many dominated cells it leaves out — summed over the
// components' models when the instance was solved by them.
func capRowCounts(inst *Instance, comps []*Component) (rows, dropped int) {
	if comps == nil {
		cells := inst.closedCells()
		return len(cells.kept), cells.dropped
	}
	for _, c := range comps {
		cells := c.Inst.closedCells()
		rows += len(cells.kept)
		dropped += cells.dropped
	}
	return rows, dropped
}
