package lp

import "math"

// Basis is an opaque snapshot of a simplex basis, captured on
// Solution.Basis when Options.CaptureBasis (or a warm start) was requested.
// It pins the full column status — which columns are basic, which nonbasic
// ones sit at their lower vs upper bound — plus the artificial-column
// signs, which together determine the basis matrix exactly.
//
// A captured Basis is only meaningful for the model shape it was captured
// from: same variable count, same row count, same per-row inequality mix
// (slack columns). Options.WarmStart verifies all of that and silently falls
// back to a cold solve on any mismatch, so callers may hand a stale basis to
// a structurally different model without risking a wrong answer. Remap
// carries a basis onto another model's shape.
type Basis struct {
	nVars int // structural columns
	nRows int
	nCols int // structural + slack columns

	// basis lists the basic columns. A captured basis holds one per row, in
	// slot order; a remapped one holds what it carried and may be short, long
	// or singular, which the warm start repairs (squareBasis).
	basis    []int
	rowSlack []int     // row -> its slack column, or -1 for an EQ row
	state    []int8    // column -> stAtLower/stAtUpper/stBasic, length nCols+nRows
	art      []float64 // artificial signs, length nRows

	// work is the re-entry budget of the chain that exported the basis
	// (Incremental.Basis), which a chain it seeds inherits; 0 elsewhere.
	work int
}

// Carried is one source of Remap: a basis captured on another model, and
// where each of that model's structural columns (Vars) and rows (Rows) sits
// on the model the basis is carried onto — its index there, or -1 when it
// has no counterpart. A row's slack and artificial go where the row goes. A
// nil map carries every index onto itself.
type Carried struct {
	Basis      *Basis
	Vars, Rows []int
}

// Remap carries the bases of from onto m, for Options.WarmStart: every
// column and row keeps the status it had, wherever the maps send it, and a
// row of m that none of them maps to gets a basic column of its own, its
// slack or else its artificial. The sources must map onto disjoint columns
// and rows of m. A column that was basic and has no counterpart leaves its
// slot empty, so the result need not be square, let alone nonsingular: a
// warm start from it factors the basic columns in order, skips each that
// finds no acceptable pivot, and gives every row left without one its
// slack, or else its artificial. Sources with a nil Basis are skipped; with
// none, every row of m has its own column: the slack basis.
func Remap(m *Model, from ...Carried) *Basis {
	rowSlack := make([]int, len(m.rows))
	slack := len(m.vars)
	for i, r := range m.rows {
		rowSlack[i] = -1
		if r.op != EQ {
			rowSlack[i] = slack
			slack++
		}
	}
	return remap(len(m.vars), rowSlack, from)
}

// Extend remaps a captured basis onto the shape the model takes after
// appending addedVars structural columns and addedLERows trailing LE
// constraint rows (the column-generation growth pattern: new path columns
// plus any capacity rows they are the first to load). The returned snapshot
// keeps the original basis matrix unchanged — appended columns enter
// nonbasic at their lower bound, each appended row's slack enters basic —
// so a warm solve from it refactorizes the same basis and prices the new
// columns in from the old optimum instead of solving cold.
//
// Only LE rows may be appended this way (their +1 slack provides the basic
// column for the new slot). The receiver is not modified; a nil receiver or
// negative counts return nil, and Extend(0, 0) returns a plain copy.
func (ws *Basis) Extend(addedVars, addedLERows int) *Basis {
	if ws == nil || addedVars < 0 || addedLERows < 0 {
		return nil
	}
	// The slack block starts after the enlarged structural block, and the
	// appended rows' slacks follow the old ones.
	rowSlack := make([]int, ws.nRows+addedLERows)
	for i, sl := range ws.rowSlack {
		if sl >= 0 {
			sl += addedVars
		}
		rowSlack[i] = sl
	}
	for t := 0; t < addedLERows; t++ {
		rowSlack[ws.nRows+t] = ws.nCols + addedVars + t
	}
	return remap(ws.nVars+addedVars, rowSlack, []Carried{{Basis: ws}})
}

// remap is Remap onto a model of nVars structural columns whose rows have the
// slack columns rowSlack lists. The carried basic columns come first, source
// by source in slot order, then the own columns of the rows nothing maps to,
// in row order.
func remap(nVars int, rowSlack []int, from []Carried) *Basis {
	nRows, nCols := len(rowSlack), nVars
	for _, sl := range rowSlack {
		if sl >= 0 {
			nCols++
		}
	}
	out := &Basis{
		nVars:    nVars,
		nRows:    nRows,
		nCols:    nCols,
		rowSlack: rowSlack,
		state:    make([]int8, nCols+nRows),
		art:      make([]float64, nRows),
	}
	covered := make([]bool, nRows)
	for _, src := range from {
		ws := src.Basis
		if ws == nil {
			continue
		}
		// to[j] is where old column j goes: structural by Vars, slack and
		// artificial with their row.
		to := make([]int, ws.nCols+ws.nRows)
		for j := range to {
			to[j] = -1
		}
		for j := 0; j < ws.nVars; j++ {
			to[j] = j
			if src.Vars != nil {
				to[j] = src.Vars[j]
			}
		}
		for i := 0; i < ws.nRows; i++ {
			ni := i
			if src.Rows != nil {
				ni = src.Rows[i]
			}
			if ni < 0 {
				continue
			}
			covered[ni] = true
			out.art[ni] = ws.art[i]
			if sl := ws.rowSlack[i]; sl >= 0 {
				to[sl] = rowSlack[ni]
			}
			to[ws.nCols+i] = nCols + ni
		}
		for _, j := range ws.basis {
			if nj := to[j]; nj >= 0 {
				out.basis = append(out.basis, nj)
			}
		}
		for j, st := range ws.state {
			if nj := to[j]; nj >= 0 {
				out.state[nj] = st
			}
		}
	}
	for i, ok := range covered {
		if ok {
			continue
		}
		out.art[i] = 1
		j := rowSlack[i]
		if j < 0 {
			j = nCols + i
		}
		out.basis = append(out.basis, j)
		out.state[j] = stBasic
	}
	return out
}

// snapshotBasis copies the live basis out of the solver state.
func (s *simplex) snapshotBasis() *Basis {
	ints := make([]int, 2*s.m) // the slots, then the rows' slacks
	ws := &Basis{
		nVars:    s.nStruct,
		nRows:    s.m,
		nCols:    s.n,
		basis:    ints[:s.m:s.m],
		rowSlack: ints[s.m:],
		state:    make([]int8, s.nTotal()),
		art:      make([]float64, s.m),
	}
	copy(ws.basis, s.basis)
	copy(ws.state, s.state)
	copy(ws.art, s.art)
	for i := range ws.rowSlack {
		ws.rowSlack[i] = -1
	}
	for sl := s.nStruct; sl < s.n; sl++ {
		rows, _ := s.a.col(sl)
		ws.rowSlack[rows[0]] = sl
	}
	return ws
}

// compatible reports whether the snapshot matches the assembled solver's
// shape — its rows' slacks included — and is internally consistent (no
// duplicate or out-of-range basic columns). It uses s.pos as scratch and
// leaves it all −1, as assemble did.
func (ws *Basis) compatible(s *simplex) bool {
	if ws == nil || ws.nVars != s.nStruct || ws.nRows != s.m || ws.nCols != s.n {
		return false
	}
	if len(ws.rowSlack) != ws.nRows || len(ws.state) != ws.nCols+ws.nRows || len(ws.art) != ws.nRows {
		return false
	}
	for sl := s.nStruct; sl < s.n; sl++ {
		if rows, _ := s.a.col(sl); ws.rowSlack[rows[0]] != sl {
			return false
		}
	}
	ok := true
	for _, j := range ws.basis {
		if j < 0 || j >= s.nTotal() || s.pos[j] >= 0 {
			ok = false
			break
		}
		s.pos[j] = 0
	}
	for _, j := range ws.basis {
		if j >= 0 && j < s.nTotal() {
			s.pos[j] = -1
		}
	}
	return ok
}

// startFrom makes a compatible snapshot the current basis, under the
// phase-2 costs, and factorizes it. A snapshot that does not hold one basic
// column per row, or that is singular under the current data, is squared
// (squareBasis) to what of it factors.
func (s *simplex) startFrom(ws *Basis) error {
	copy(s.state, ws.state)
	copy(s.art, ws.art)
	cand := ws.basis
	if len(cand) == s.m {
		copy(s.basis, cand)
		s.placeBasis()
		if s.refactorize() == nil {
			return nil
		}
		cand = append([]int(nil), s.basis...)
	}
	s.squareBasis(cand, ws.rowSlack)
	s.placeBasis()
	return s.refactorize()
}

// placeBasis makes s.basis the current basis, under the phase-2 costs: it
// sets the positions and states of its columns and repairs stale nonbasic
// states — a column recorded basic but not in s.basis, or recorded at an
// upper bound that is now infinite, rests at its lower bound.
func (s *simplex) placeBasis() {
	for j := range s.pos {
		s.pos[j] = -1
	}
	for slot, j := range s.basis {
		s.pos[j] = slot
		s.state[j] = stBasic
	}
	s.luCurrent = false
	s.enterPhase2() // drops the pricing summaries with the reduced costs
	for j := 0; j < s.nTotal(); j++ {
		if s.pos[j] >= 0 {
			continue
		}
		if s.state[j] == stBasic || (s.state[j] == stAtUpper && math.IsInf(s.u[j], 1)) {
			s.state[j] = stAtLower
		}
	}
}

// squareBasis fills s.basis with a nonsingular basis grown from the columns
// cand lists, which must not alias s.basis: it factors them in ascending
// order of their entry counts (stable), keeps each that finds an acceptable
// pivot (at most one per row), and then gives every row left without a pivot
// its own slack from rowSlack, or its artificial when it has none. Such a
// column is ±e_i for a row i no kept column pivots on, so the whole is
// nonsingular. The entry-count order is a cheap fill-reducing one — unit and
// one-entry columns pivot on their own rows before any elimination — and it
// sets the slot order every later refactorization of the solve follows: it
// halves the fill of the carried stage-2 bases on steady-enum. The state of
// a column that is not kept is left as it was, for placeBasis to repair.
func (s *simplex) squareBasis(cand, rowSlack []int) {
	if s.factor.spare == nil {
		s.factor.spare = new(luFactors)
	}
	f := s.factor.spare // scratch: refactor builds into it and swaps
	f.start(s.m)
	kept := 0
	for want, longer := 1, true; longer && kept < s.m; want++ {
		longer = false
		for _, j := range cand {
			rows, vals := s.column(j)
			if len(rows) != want {
				longer = longer || len(rows) > want
				continue
			}
			if kept < s.m && f.eliminate(kept, rows, vals) {
				s.basis[kept] = j
				kept++
			}
		}
	}
	for i := 0; i < s.m; i++ {
		if f.pinv[i] >= 0 {
			continue
		}
		j := rowSlack[i]
		if j < 0 {
			j = s.n + i
		}
		s.basis[kept] = j
		kept++
	}
}
