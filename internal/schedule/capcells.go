package schedule

import (
	"slices"

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
// stage-2 LPs are of this kind. A closed model is built without them: the
// same feasible set, hence the same optimum and (with the lexicographic
// phase) the same plan, from a basis a third the size.
//
// A model that grows — a column-generation stage-1 or stage-2 master — is
// built the same way and kept closed as it grows, under one invariant: every
// loaded cell A without a row links to a dominator B (vars(A) ⊆ vars(B),
// C_B ≤ C_A), and the links from any such cell lead to a cell with a row,
// never round in a cycle. Dominance is a statement about the columns
// present, so appendPath lays out again each cell a new column loads
// (hopRows): a path appended later may load A and not B, and then A links to
// another cell of that path or, when none dominates it, gets its row back.
// Pricing reads a dual of 0 for a cell without a row. That is exact: the
// reduced master has the full master's feasible set, so its optimum and
// those duals are a primal-dual optimal pair of the full master, and a
// pricing round proves what it proved before. SUB-RET, whose vertex still
// depends on the pivot path (DESIGN §10), keeps every row, its master
// included.

// capCells is the capacity-row layout of a model: a closed one, or one built
// with every capacity row (addCapacityRows), which drops no cell and has no
// termRow.
type capCells struct {
	// kept lists the cells that get a row, in the order the build loop —
	// job, path, in-window slice, hop — first meets them; a master appends
	// the rows it adds as it grows.
	kept []capKey
	// termRow has one entry per step of that loop: the index into kept of
	// the cell the hop loads, or -1 when that cell is dominated.
	termRow []int32
	// row[j·nE+e] is 0 for a cell nothing loads, 1 + its index in kept for a
	// cell with a row, and −(1 + e′) for a dominated cell that links to its
	// dominator (e′, j).
	row []int32
	// dropped counts the loaded cells without a row; restored, the rows a
	// master gave back as it grew.
	dropped, restored int
}

// closedCells returns the capacity-row layout of the instance's closed
// models, computing it on first use. Both stages of one solve share it; a
// master, which grows its own, does not. It is not synchronized: one
// goroutine solves an instance at a time, and parallel component solves each
// work on their own sub-instance.
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

	// row: −(1 + e′) for a dominated cell, later 1 + the index in kept of a
	// cell with a row.
	row := make([]int32, ns*nE)
	cells := &capCells{termRow: make([]int32, 0, nTerms), row: row}
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
				// hop of their common first path. So no link points back
				// along a chain of them.
				if capB == capA && size[e2] == size[e] && behind {
					continue
				}
				row[j*nE+int(e)] = -(1 + int32(e2))
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

// addClosedCapacityRows adds constraint (3) to a closed model: a row for
// every loaded (edge, slice) cell that is not dominated (see capCells), in
// the order addCapacityRows would emit them.
func addClosedCapacityRows(m *lp.Model, inst *Instance, xv flowVars, cells *capCells) {
	base := m.NumRows()
	for _, c := range cells.kept {
		m.AddRow("", lp.LE, float64(inst.Capacity(c.e, c.j)))
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

// pathRef names path p of job k of a master.
type pathRef struct{ k, p int32 }

// hopRows lays out the cells that a column over edges at slice j, about to
// be appended to the master, loads, and appends to rows the capacity rows it
// gets a term in. A cell with a row keeps it. A cell without one keeps its
// link when its dominator is on the path too, since the column loads both;
// otherwise it links to another cell of the path that still dominates it
// (relink) or gets its row back (restoreRow). A cell the path is the first to
// load links to the path's bottleneck at j — its first hop of least capacity,
// which holds the new column and gets a row if it is new too; a bottleneck
// without a row is laid out like any other hop, so its links still lead to
// a row. A master that keeps every row gives each new cell its own.
func (ms *cgMaster) hopRows(edges []netgraph.EdgeID, j int, rows []lp.RowID) []lp.RowID {
	inst, nE := ms.inst, ms.inst.G.NumEdges()
	row := ms.cells.row[j*nE : (j+1)*nE]
	if !ms.every {
		b := edges[0]
		for _, e := range edges[1:] {
			if inst.Capacity(e, j) < inst.Capacity(b, j) {
				b = e
			}
		}
		if row[b] == 0 {
			ms.addCapRow(b, j)
		}
		for _, e := range edges {
			switch {
			case row[e] == 0:
				row[e] = -(1 + int32(b))
				ms.cells.dropped++
				ms.linked++
			case row[e] < 0 && !slices.Contains(edges, netgraph.EdgeID(-row[e]-1)):
				if to, ok := ms.relink(edges, e, j); ok {
					row[e] = -(1 + int32(to))
				} else {
					ms.restoreRow(e, j)
				}
			}
		}
	}
	for _, e := range edges {
		if row[e] == 0 {
			ms.addCapRow(e, j)
		}
		if r := row[e]; r > 0 {
			rows = append(rows, lp.RowID(ms.inst.NumJobs()+int(r)-1))
		}
	}
	return rows
}

// relink returns a cell (to, j) on edges other than (e, j) that dominates
// (e, j) once a column over edges loads both — it holds every column that
// loads (e, j) and has no larger capacity — and whose links do not lead back
// to (e, j). ok is false when there is none.
func (ms *cgMaster) relink(edges []netgraph.EdgeID, e netgraph.EdgeID, j int) (to netgraph.EdgeID, ok bool) {
	inst, over := ms.inst, ms.pathsOver(e)
	n := int32(0) // |vars(e, j)|; ms.cross[e′] counts those that load (e′, j)
	for _, q := range over {
		if ms.xv[q.k][q.p][j] >= 0 {
			n++
			for _, e2 := range inst.JobPaths[q.k][q.p].Edges {
				ms.cross[e2]++
			}
		}
	}
	capA := inst.Capacity(e, j)
	for _, e2 := range edges {
		if e2 != e && ms.cross[e2] == n && inst.Capacity(e2, j) <= capA && !ms.leadsTo(e2, e, j) {
			to, ok = e2, true
			break
		}
	}
	for _, q := range over {
		if ms.xv[q.k][q.p][j] >= 0 {
			for _, e2 := range inst.JobPaths[q.k][q.p].Edges {
				ms.cross[e2] = 0
			}
		}
	}
	return to, ok
}

// leadsTo reports whether the links from cell (from, j) reach (to, j) before
// a cell with a row.
func (ms *cgMaster) leadsTo(from, to netgraph.EdgeID, j int) bool {
	nE := ms.inst.G.NumEdges()
	row := ms.cells.row[j*nE : (j+1)*nE]
	for e := from; row[e] < 0; {
		if e = netgraph.EdgeID(-row[e] - 1); e == to {
			return true
		}
	}
	return false
}

// addCapRow gives cell (e, j) a trailing LE row, which Basis.Extend serves,
// and returns it.
func (ms *cgMaster) addCapRow(e netgraph.EdgeID, j int) lp.RowID {
	c := ms.cells
	r := ms.m.AddRow("", lp.LE, float64(ms.inst.Capacity(e, j)))
	c.kept = append(c.kept, capKey{e, j})
	c.row[j*ms.inst.G.NumEdges()+int(e)] = int32(len(c.kept))
	return r
}

// restoreRow gives a cell without a row its row back, with every column
// already in the master that loads it. Its slack starts feasible: its load is
// at most its dominator's, which is at most C_B ≤ C_A.
func (ms *cgMaster) restoreRow(e netgraph.EdgeID, j int) {
	r := ms.addCapRow(e, j)
	for _, q := range ms.pathsOver(e) {
		if v := ms.xv[q.k][q.p][j]; v >= 0 {
			ms.m.AddTerm(r, v, 1)
		}
	}
	ms.cells.dropped--
	ms.cells.restored++
}

// pathsOver returns the master's paths that cross edge e: its column index,
// built on first use and grown by appendPath. The columns that load cell
// (e, j) are theirs at slice j.
func (ms *cgMaster) pathsOver(e netgraph.EdgeID) []pathRef {
	if ms.onEdge == nil {
		nE := ms.inst.G.NumEdges()
		ms.onEdge, ms.cross = make([][]pathRef, nE), make([]int32, nE)
		for k := range ms.xv {
			for p := range ms.xv[k] {
				ms.indexPath(k, p)
			}
		}
	}
	return ms.onEdge[e]
}

// indexPath adds path p of job k to the column index.
func (ms *cgMaster) indexPath(k, p int) {
	for _, e := range ms.inst.JobPaths[k][p].Edges {
		ms.onEdge[e] = append(ms.onEdge[e], pathRef{int32(k), int32(p)})
	}
}
