package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ---- The dense iteration kernels, verbatim from the commit before the
// O(changes) kernels: the oracle the new ones must agree with bit for bit.
// Only the receivers became parameters (the oracle owns its y and w buffers,
// and FTRAN takes the eta file to apply so it can be cut at a past length).

// denseSolve is luFactors.solve as it was: copy, every active L position,
// full gather, full clear, every active U position.
func denseSolve(f *luFactors, v []float64) {
	w := f.work
	copy(w, v)
	for _, k := range f.lact {
		val := w[f.perm[k]]
		if val == 0 {
			continue
		}
		for _, le := range f.lent[f.lptr[k]:f.lptr[k+1]] {
			w[le.idx] -= val * le.val
		}
	}
	for k, r := range f.perm {
		v[k] = w[r]
	}
	for i := range w {
		w[i] = 0
	}
	for i := len(f.uact) - 1; i >= 0; i-- {
		j := f.uact[i]
		xj := v[j] / f.udiag[j]
		v[j] = xj
		if xj == 0 {
			continue
		}
		for _, ue := range f.uent[f.uptr[j]:f.uptr[j+1]] {
			v[ue.idx] -= ue.val * xj
		}
	}
}

// denseFtran is basisFactor.ftran as it was.
func denseFtran(lu *luFactors, etas []eta, v []float64) {
	denseSolve(lu, v)
	for k := range etas {
		e := &etas[k]
		t := v[e.r] / e.wr
		if t != 0 {
			for i, p := range e.idx {
				v[p] -= e.vals[i] * t
			}
		}
		v[e.r] = t
	}
}

// denseColumn is the head of the old step: zero w, scatter column q
// (simplex.colInto), FTRAN in place, then simplex.nonzeros.
func denseColumn(s *simplex, lu *luFactors, etas []eta, q int, w []float64) (nz []int) {
	for i := range w {
		w[i] = 0
	}
	if q < s.n {
		rows, vals := s.a.col(q)
		for k, r := range rows {
			w[r] += vals[k]
		}
	} else {
		i := q - s.n
		w[i] += s.art[i]
	}
	denseFtran(lu, etas, w)
	for i, v := range w {
		if v != 0 {
			nz = append(nz, i)
		}
	}
	return nz
}

// densePrice is simplex.price as it was: a BTRAN on every call and a fresh
// dot product for every column the rule scans. It moves s.cursor as the old
// code did; the caller puts it back.
func densePrice(s *simplex, y []float64) int {
	// y = B⁻ᵀ c_B, computed slot-indexed then transformed to row-indexed.
	for slot, j := range s.basis {
		y[slot] = s.c[j]
	}
	s.factor.btran(y)

	useBland := s.blandMode || s.opt.Pricing == Bland

	// score returns the pricing merit of column j, or 0 when ineligible.
	score := func(j int) float64 {
		st := s.state[j]
		if st == stBasic || s.l[j] == s.u[j] {
			return 0
		}
		d := s.c[j] - s.colDotY(j, y)
		if st == stAtLower {
			d = -d // want d < -optTol
		}
		if d <= optTol {
			return 0
		}
		return d
	}

	if s.opt.Pricing == Devex && !useBland {
		if s.gamma == nil {
			s.resetDevex()
		}
		best := -1
		bestMerit := 0.0
		for j := 0; j < s.nTotal(); j++ {
			d := score(j)
			if d <= 0 {
				continue
			}
			if merit := d * d / s.gamma[j]; merit > bestMerit {
				bestMerit = merit
				best = j
			}
		}
		return best
	}

	if s.opt.Pricing == PartialDantzig && !useBland {
		n := s.nTotal()
		window := n / 8
		if window < 256 {
			window = 256
		}
		best := -1
		bestScore := optTol
		scanned := 0
		remaining := -1 // columns left to scan after the first hit
		for scanned < n {
			j := (s.cursor + scanned) % n
			scanned++
			if sc := score(j); sc > bestScore {
				bestScore = sc
				best = j
				if remaining < 0 {
					remaining = window
				}
			}
			if remaining >= 0 {
				remaining--
				if remaining <= 0 {
					break
				}
			}
		}
		if best >= 0 {
			s.cursor = (best + 1) % n
		}
		return best
	}

	best := -1
	bestScore := optTol
	for j := 0; j < s.nTotal(); j++ {
		sc := score(j)
		if sc <= 0 {
			continue
		}
		if useBland {
			return j
		}
		if sc > bestScore {
			bestScore = sc
			best = j
		}
	}
	return best
}

// denseRatioTest is the ratio test of the old step over the oracle's w: the
// leaving slot (−1 for a bound flip) and the step length (+Inf: unbounded).
func denseRatioTest(s *simplex, q int, w []float64, nz []int) (leave int, tBest float64) {
	dir := 1.0
	if s.state[q] == stAtUpper {
		dir = -1
	}
	tBest = math.Inf(1)
	if !math.IsInf(s.u[q], 1) {
		tBest = s.u[q] - s.l[q] // bound flip distance
	}
	leave = -1
	for _, i := range nz {
		wi := dir * w[i]
		bj := s.basis[i]
		var t float64
		if wi > pivotTol {
			t = (s.xB[i] - s.l[bj]) / wi
		} else if wi < -pivotTol {
			if math.IsInf(s.u[bj], 1) {
				continue
			}
			t = (s.u[bj] - s.xB[i]) / (-wi)
		} else {
			continue
		}
		if t < 0 {
			t = 0
		}
		if t < tBest-1e-12 ||
			(t < tBest+1e-12 && leave >= 0 && s.betterLeaving(i, leave, w)) {
			tBest = t
			leave = i
		}
	}
	return leave, tBest
}

// ---- The lock-step harness ----

// lockstep drives one production simplex a pivot at a time (runPhase and
// dualSimplex stop after one pivot when MaxIter is the next count, and keep
// no loop state, so calling them again resumes the loop) and holds every
// pivot against what the dense kernels compute from the same state.
type lockstep struct {
	t    *testing.T
	name string
	s    *simplex

	y, w  []float64 // the oracle's duals and entering column
	basis []int     // basis before the pivot under check
	state []int8

	// What the run exercised, summed by the test over all LPs.
	pivots, flips, elided, swaps, sparse, dualPivots, blandPivots int

	validBlocks int // block summaries found valid and held against their columns
	reusedLU    int // refactorizations that kept the factors
	keptDuals   int // ... and with them the basic values and the duals
	clamped     int // swaps that took a negative artificial out from under onlySwaps
	swapRun     int // isolated swaps in a row, so far and at most
	maxSwapRun  int

	crashSlack, crashWrongSign int // cold start: rows put on their slack; inequality rows that could not be
}

func newLockstep(t *testing.T, name string, s *simplex) *lockstep {
	return &lockstep{
		t: t, name: name, s: s,
		y: make([]float64, s.m), w: make([]float64, s.m),
		basis: make([]int, s.m), state: make([]int8, s.nTotal()),
	}
}

func (ls *lockstep) fatalf(format string, args ...any) {
	ls.t.Helper()
	ls.t.Fatalf("%s, pivot %d: %s", ls.name, ls.s.iters, fmt.Sprintf(format, args...))
}

// checkDuals requires the production duals and every reduced cost the cache
// would serve to be what the dense kernels compute, bit for bit.
func (ls *lockstep) checkDuals() {
	ls.t.Helper()
	s := ls.s
	for r := range ls.y {
		if !sameBits(s.yRow[r], ls.y[r]) {
			ls.fatalf("y[%d] = %b (%#x), BTRAN gives %b (%#x)", r,
				s.yRow[r], math.Float64bits(s.yRow[r]), ls.y[r], math.Float64bits(ls.y[r]))
		}
	}
	ls.checkCache()
}

// checkCache requires every cached reduced cost marked valid to equal a
// fresh evaluation against the duals in hand, and every block summary marked
// valid to be what reading its columns one by one returns.
func (ls *lockstep) checkCache() {
	ls.t.Helper()
	s := ls.s
	for j := 0; j < s.nTotal(); j++ {
		if s.djGen[j] != s.gen {
			continue
		}
		if d := s.c[j] - s.colDotY(j, s.yRow); !sameBits(s.dj[j], d) {
			ls.fatalf("cached d[%d] = %b, a fresh evaluation gives %b", j, s.dj[j], d)
		}
	}
	if len(s.blocks) != numPriceBlocks(s.nTotal()) {
		ls.fatalf("%d pricing blocks for %d columns", len(s.blocks), s.nTotal())
	}
	for b, blk := range s.blocks {
		if !blk.valid {
			continue
		}
		ls.validBlocks++
		// The per-column loop of densePrice over the block, on the cached
		// reduced costs (held against fresh ones above): a valid block has
		// none stale among the columns that loop evaluates.
		want := priceBlock{valid: true, first: -1, best: -1}
		for j := b * priceBlockSize; j < (b+1)*priceBlockSize && j < s.nTotal(); j++ {
			st := s.state[j]
			if st == stBasic || s.l[j] == s.u[j] {
				continue
			}
			if s.djGen[j] != s.gen {
				ls.fatalf("block %d is marked valid, the reduced cost of its column %d stale", b, j)
			}
			d := s.dj[j]
			if st == stAtLower {
				d = -d
			}
			if d > optTol && d > want.score {
				if want.first < 0 {
					want.first = int32(j)
				}
				want.best, want.score = int32(j), d
			}
		}
		if blk.first != want.first || blk.best != want.best || !sameBits(blk.score, want.score) {
			ls.fatalf("block %d is marked valid with first %d, best %d (score %b); its columns give first %d, best %d (score %b)",
				b, blk.first, blk.best, blk.score, want.first, want.best, want.score)
		}
	}
}

// refactorize runs the production refactorization where the flows call it
// between the loops, and holds what it kept against a full one.
func (ls *lockstep) refactorize() error {
	ls.t.Helper()
	lu := ls.s.factor.lu
	if err := ls.s.refactorize(); err != nil {
		return err
	}
	ls.checkRefactor(lu)
	return nil
}

// checkRefactor follows every production refactorization; lu is the
// factorization in use before it. One that kept the factors (a full one
// swaps the two LU buffers) must leave the state a full refactorization of a
// copy produces, bit for bit: the factors, the basic values, the row cover
// and dirty marks, and the duals the next BTRAN returns — which are the
// duals in hand if it kept those as well.
func (ls *lockstep) checkRefactor(lu *luFactors) {
	ls.t.Helper()
	s := ls.s
	if len(s.factor.etas) != 0 {
		ls.fatalf("%d etas left after a refactorization", len(s.factor.etas))
	}
	if s.factor.lu != lu {
		return
	}
	ls.reusedLU++

	ref := *s
	ref.factor = new(basisFactor)
	ref.xB, ref.scratch = make([]float64, s.m), make([]float64, s.m)
	ref.rowCover, ref.rowDirty, ref.dirtied = make([]int32, s.m), make([]bool, s.m), nil
	ref.luCurrent, ref.onlySwaps, ref.dualsFresh = false, false, false
	if err := ref.refactorize(); err != nil {
		ls.fatalf("the factors were kept, a full refactorization of the same basis fails: %v", err)
	}

	f, g := s.factor.lu, ref.factor.lu
	for k := 0; k < s.m; k++ {
		if f.perm[k] != g.perm[k] || f.pinv[k] != g.pinv[k] || !sameBits(f.udiag[k], g.udiag[k]) {
			ls.fatalf("kept factors: position %d has perm/pinv/udiag %d/%d/%b, a full factorization %d/%d/%b",
				k, f.perm[k], f.pinv[k], f.udiag[k], g.perm[k], g.pinv[k], g.udiag[k])
		}
		for _, c := range []struct {
			name      string
			got, want []luEntry
		}{
			{"L", f.lent[f.lptr[k]:f.lptr[k+1]], g.lent[g.lptr[k]:g.lptr[k+1]]},
			{"U", f.uent[f.uptr[k]:f.uptr[k+1]], g.uent[g.uptr[k]:g.uptr[k+1]]},
		} {
			if len(c.got) != len(c.want) {
				ls.fatalf("kept factors: %s column %d has %d entries, a full factorization %d", c.name, k, len(c.got), len(c.want))
			}
			for i, e := range c.want {
				if c.got[i].idx != e.idx || !sameBits(c.got[i].val, e.val) {
					ls.fatalf("kept factors: %s column %d entry %d = (%d, %b), a full factorization gives (%d, %b)",
						c.name, k, i, c.got[i].idx, c.got[i].val, e.idx, e.val)
				}
			}
		}
	}
	for i := range s.xB {
		if !sameBits(s.xB[i], ref.xB[i]) {
			ls.fatalf("xB[%d] = %b after a refactorization that kept the factors, a full one recomputes %b", i, s.xB[i], ref.xB[i])
		}
		if s.rowCover[i] != ref.rowCover[i] || s.rowDirty[i] != ref.rowDirty[i] {
			ls.fatalf("row %d: cover %d, dirty %v after a refactorization that kept the factors, a full one counts %d, %v",
				i, s.rowCover[i], s.rowDirty[i], ref.rowCover[i], ref.rowDirty[i])
		}
	}
	if len(s.dirtied) != 0 {
		ls.fatalf("%d rows still listed dirty after a refactorization", len(s.dirtied))
	}
	got, want := make([]float64, s.m), make([]float64, s.m)
	for slot, j := range s.basis {
		got[slot], want[slot] = s.c[j], s.c[j]
	}
	s.factor.btran(got)
	ref.factor.btran(want)
	for r := range want {
		if !sameBits(got[r], want[r]) {
			ls.fatalf("BTRAN over the kept factors gives y[%d] = %b, over fresh ones %b", r, got[r], want[r])
		}
		if s.dualsFresh && !sameBits(s.yRow[r], want[r]) {
			ls.fatalf("the duals were kept with y[%d] = %b, a BTRAN over fresh factors gives %b", r, s.yRow[r], want[r])
		}
	}
	if s.dualsFresh {
		ls.keptDuals++
	}
}

// price runs one production price call against the dense one.
func (ls *lockstep) price() int {
	ls.t.Helper()
	s := ls.s
	cursor := s.cursor
	want := densePrice(s, ls.y)
	wantCursor := s.cursor
	s.cursor = cursor
	if s.dualsFresh {
		ls.elided++
	}
	got := s.price()
	if got != want || s.cursor != wantCursor {
		ls.fatalf("price chose column %d (cursor %d), the dense scan %d (cursor %d)", got, s.cursor, want, wantCursor)
	}
	ls.checkDuals()
	return got
}

// checkColumn requires the production FTRAN result in hand to be the dense
// one: the same ascending nonzero list and the same bits on it.
func (ls *lockstep) checkColumn(q int, nz []int) {
	ls.t.Helper()
	gotW, gotNz := ls.s.factor.w, ls.s.factor.nz
	if len(gotNz) != len(nz) {
		ls.fatalf("FTRAN of column %d has %d nonzeros %v, the dense loops give %d %v", q, len(gotNz), gotNz, len(nz), nz)
	}
	for k, i := range nz {
		if gotNz[k] != i || !sameBits(gotW[i], ls.w[i]) {
			ls.fatalf("FTRAN of column %d: nonzero %d is w[%d] = %b, the dense loops give w[%d] = %b",
				q, k, gotNz[k], gotW[gotNz[k]], i, ls.w[i])
		}
	}
	for i, v := range gotW {
		if v != 0 && ls.w[i] == 0 {
			ls.fatalf("FTRAN of column %d left w[%d] = %b outside its nonzero list", q, i, v)
		}
	}
	if !ls.s.factor.wDense {
		ls.sparse++
	}
}

// primalStep runs one iteration of runPhase and reports whether the phase
// went on (false: st is how it ended).
func (ls *lockstep) primalStep() (more bool, st Status) {
	ls.t.Helper()
	s := ls.s

	// The dense kernels on the state before the pivot.
	cursor := s.cursor
	q := densePrice(s, ls.y)
	wantCursor := s.cursor
	s.cursor = cursor
	leave, tBest := -1, 0.0
	var nz []int
	if q >= 0 {
		nz = denseColumn(s, s.factor.lu, s.factor.etas, q, ls.w)
		leave, tBest = denseRatioTest(s, q, ls.w, nz)
	}
	copy(ls.basis, s.basis)
	copy(ls.state, s.state)
	etas, iters, wasFresh, wasBland := len(s.factor.etas), s.iters, s.dualsFresh, s.blandMode
	lu, wasOnlySwaps := s.factor.lu, s.onlySwaps
	negative := leave >= 0 && s.xB[leave] < 0

	// One production iteration.
	limit := s.opt.MaxIter
	s.opt.MaxIter = s.iters + 1
	st, err := s.runPhase()
	s.opt.MaxIter = limit
	if err != nil {
		ls.fatalf("runPhase: %v", err)
	}
	if wasFresh {
		ls.elided++
	}

	if s.cursor != wantCursor {
		ls.fatalf("price left the cursor at %d, the dense scan at %d", s.cursor, wantCursor)
	}
	if q < 0 {
		if st != Optimal || s.iters != iters {
			ls.fatalf("the dense scan finds no entering column; runPhase returned %v after %d pivots", st, s.iters-iters)
		}
		ls.checkDuals()
		return false, Optimal
	}
	ls.checkColumn(q, nz)
	if math.IsInf(tBest, 1) {
		if st != Unbounded {
			ls.fatalf("the dense ratio test is unbounded on column %d; runPhase returned %v", q, st)
		}
		return false, Unbounded
	}
	if st != IterLimit || s.iters != iters+1 {
		ls.fatalf("runPhase returned %v after %d pivots, want one pivot on column %d", st, s.iters-iters, q)
	}
	ls.pivots++
	if wasBland {
		ls.blandPivots++
	}
	changed := -1
	for slot, j := range s.basis {
		if j != ls.basis[slot] {
			if changed >= 0 {
				ls.fatalf("slots %d and %d both changed", changed, slot)
			}
			changed = slot
		}
	}
	if changed != leave {
		ls.fatalf("column %d: leaving slot %d, the dense ratio test gives %d", q, changed, leave)
	}
	if leave < 0 {
		ls.flips++
		if s.state[q] == ls.state[q] || s.state[q] == stBasic || len(s.factor.etas) != etas {
			ls.fatalf("bound flip of column %d: state %d -> %d, etas %d -> %d", q, ls.state[q], s.state[q], etas, len(s.factor.etas))
		}
	} else {
		if s.basis[leave] != q {
			ls.fatalf("slot %d took column %d, the dense scan entered %d", leave, s.basis[leave], q)
		}
		wantEtas := etas + 1
		if wantEtas >= s.opt.RefactorEvery {
			wantEtas = 0
		}
		if len(s.factor.etas) != wantEtas {
			ls.fatalf("%d etas after the pivot, want %d", len(s.factor.etas), wantEtas)
		}
		if wantEtas == 0 {
			ls.checkRefactor(lu)
		}
		if s.dualsFresh {
			ls.swaps++
			ls.swapRun++
			if ls.swapRun > ls.maxSwapRun {
				ls.maxSwapRun = ls.swapRun
			}
			if negative && wasOnlySwaps {
				ls.clamped++
			}
		}
	}
	if !s.dualsFresh || leave < 0 {
		ls.swapRun = 0
	}
	// yRow still holds the duals price used, those of the basis before the
	// pivot — unless the pivot patched them for the basis after it, and then
	// they must be what a BTRAN over the new basis returns.
	if s.dualsFresh && leave >= 0 {
		for slot, j := range s.basis {
			ls.y[slot] = s.c[j]
		}
		s.factor.btran(ls.y)
	}
	ls.checkDuals()
	return true, IterLimit
}

// primal runs runPhase to its end, a checked pivot at a time.
func (ls *lockstep) primal() Status {
	ls.t.Helper()
	for {
		more, st := ls.primalStep()
		if !more {
			return st
		}
		if ls.s.iters >= ls.s.opt.MaxIter {
			return IterLimit
		}
	}
}

// dual runs dualSimplex to its end a pivot at a time, checking each
// entering column's FTRAN against the dense loops on the factors and eta
// file the pivot started from.
func (ls *lockstep) dual() dualStatus {
	ls.t.Helper()
	s := ls.s
	for {
		copy(ls.basis, s.basis)
		lu, etas, iters := s.factor.lu, len(s.factor.etas), s.iters
		limit := s.opt.MaxIter
		s.opt.MaxIter = s.iters + 1
		st, err := s.dualSimplex()
		s.opt.MaxIter = limit
		if err != nil {
			ls.fatalf("dualSimplex: %v", err)
		}
		if s.iters == iters {
			return st // ended without a pivot: optimal, infeasible or stalled
		}
		ls.dualPivots++
		if s.dualsFresh {
			ls.fatalf("a dual pivot left dualsFresh set")
		}
		if s.factor.lu == lu && len(s.factor.etas) == etas+1 {
			for slot, j := range s.basis {
				if j != ls.basis[slot] {
					nz := denseColumn(s, lu, s.factor.etas[:etas], j, ls.w)
					ls.checkColumn(j, nz)
				}
			}
		} else if len(s.factor.etas) == 0 {
			ls.checkRefactor(lu)
		}
		ls.checkCache()
		if st != dualIterLimit || s.iters >= limit {
			return st
		}
	}
}

// ---- The flows, with the production set-up pieces between the loops ----

// cold is Model.coldSolve: crash basis, phase 1, phase 2. It returns the
// final state and how the solve ended.
func (ls *lockstep) cold() Status {
	ls.t.Helper()
	s := ls.s
	s.crashBasis()
	ls.checkCrash()
	if err := ls.refactorize(); err != nil {
		ls.fatalf("initial factorization: %v", err)
	}
	if st := ls.primal(); st != Optimal {
		return st
	}
	if s.objective() > 1e-6 {
		return Infeasible
	}
	s.enterPhase2()
	s.blandMode = false
	s.degenRun = 0
	return ls.primal()
}

// checkCrash holds the cold start to its definition, row by row, against a
// residual computed here from the matrix: an inequality row whose slack can
// take up the residual at a nonnegative value starts on that slack, and its
// artificial is out of the problem — nonbasic at zero and pinned there, as
// after phase 1; every other row, and every row under
// Options.ArtificialCrash, starts on its artificial, signed to be
// nonnegative and free to leave. Either way the basic value is |residual|.
func (ls *lockstep) checkCrash() {
	ls.t.Helper()
	s := ls.s
	res := append([]float64(nil), s.b...)
	for j := 0; j < s.nStruct; j++ {
		if s.state[j] == stBasic {
			ls.fatalf("crash basis: structural column %d is basic", j)
		}
		rows, vals := s.a.col(j)
		for k, r := range rows {
			res[r] -= vals[k] * s.nonbasicValue(j)
		}
	}
	slackOf := make([]int, s.m)
	for i := range slackOf {
		slackOf[i] = -1
	}
	for sl := s.nStruct; sl < s.n; sl++ {
		rows, _ := s.a.col(sl)
		slackOf[rows[0]] = sl
	}
	for i := 0; i < s.m; i++ {
		sl, art := slackOf[i], s.n+i
		onSlack := false
		if sl >= 0 && !s.opt.ArtificialCrash {
			_, vals := s.a.col(sl)
			onSlack = vals[0]*res[i] >= 0
			if !onSlack {
				ls.crashWrongSign++
			}
		}
		if math.Abs(s.xB[i]-math.Abs(res[i])) > 1e-12 || s.c[art] != 1 {
			ls.fatalf("crash basis: row %d starts at %v with phase-1 cost %v, residual %v", i, s.xB[i], s.c[art], res[i])
		}
		if onSlack {
			ls.crashSlack++
			if s.basis[i] != sl || s.pos[sl] != i || s.state[sl] != stBasic ||
				s.pos[art] != -1 || s.state[art] != stAtLower || s.l[art] != 0 || s.u[art] != 0 {
				ls.fatalf("crash basis: row %d (residual %v) should start on slack %d with its artificial pinned at zero: basis %d, artificial state %d in [%v, %v]",
					i, res[i], sl, s.basis[i], s.state[art], s.l[art], s.u[art])
			}
			continue
		}
		if s.basis[i] != art || s.pos[art] != i || s.state[art] != stBasic || s.art[i]*res[i] < 0 ||
			s.l[art] != 0 || !math.IsInf(s.u[art], 1) || (sl >= 0 && (s.state[sl] == stBasic || s.pos[sl] != -1)) {
			ls.fatalf("crash basis: row %d (residual %v, slack %d) should start on its artificial, signed %v in [%v, %v]: basis %d",
				i, res[i], sl, s.art[i], s.l[art], s.u[art], s.basis[i])
		}
	}
}

// afterDual is the tail warmSolve and Incremental.solve share: a certifying
// price call, then a primal clean-up if it finds a column.
func (ls *lockstep) afterDual(dst dualStatus) Status {
	ls.t.Helper()
	switch dst {
	case dualInfeasible:
		return Infeasible
	case dualIterLimit:
		return IterLimit
	case dualStall:
		return Numerical
	}
	s := ls.s
	if s.gamma != nil {
		s.resetDevex()
	}
	if q := ls.price(); q >= 0 {
		return ls.primal()
	}
	return Optimal
}

// warm is simplex.warmSolve from a snapshot; ok is false when production
// would fall back to the cold path.
func (ls *lockstep) warm(ws *Basis) (st Status, ok bool) {
	ls.t.Helper()
	s := ls.s
	if !ws.compatible(s) {
		return 0, false
	}
	s.installBasis(ws)
	if err := ls.refactorize(); err != nil {
		return 0, false
	}
	dst := ls.dual()
	s.blandMode = false
	s.degenRun = 0
	return ls.afterDual(dst), true
}

// reenter is the re-entry half of Incremental.solve after the model's
// bounds changed.
func (ls *lockstep) reenter(m *Model) Status {
	ls.t.Helper()
	s := ls.s
	moved := s.syncBounds(m)
	if s.phase1 {
		s.enterPhase2()
	}
	if moved {
		if err := ls.refactorize(); err != nil {
			ls.fatalf("refactorize on re-entry: %v", err)
		}
	}
	return ls.afterDual(ls.dual())
}

// ---- Generators ----

// mixedRowsLP has rows of every sense and right-hand sides of both signs
// over boxed and free-above variables, some resting at their upper bound:
// GE rows bring −1 slacks, negative residuals −1 artificials.
func mixedRowsLP(rng *rand.Rand) *Model {
	n, m := 8+rng.Intn(25), 6+rng.Intn(20)
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	model := NewModel("mixed", sense)
	for j := 0; j < n; j++ {
		lb, ub := 0.0, Inf
		switch rng.Intn(4) {
		case 0:
			ub = float64(1 + rng.Intn(6))
		case 1:
			lb, ub = -float64(3+rng.Intn(5)), float64(rng.Intn(3)) // rests at its upper bound
		}
		model.AddVar("x", lb, ub, float64(rng.Intn(9)-4))
	}
	for i := 0; i < m; i++ {
		r := model.AddRow("r", RelOp(rng.Intn(3)), float64(rng.Intn(16)-5))
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.25 {
				model.AddTerm(r, VarID(j), float64(rng.Intn(7)-2))
			}
		}
	}
	return model
}

// coverLP is a covering problem whose GE rows have right-hand sides of both
// signs: with a negative one the row starts on a −1 artificial that its own
// −1 slack replaces, the identical-column swap the isolated rule must not
// take for +1.
func coverLP(rng *rand.Rand) *Model {
	n, m := 10+rng.Intn(20), 20+rng.Intn(60)
	model := NewModel("cover", Minimize)
	for j := 0; j < n; j++ {
		model.AddVar("x", 0, float64(2+rng.Intn(5)), float64(1+rng.Intn(6)))
	}
	for i := 0; i < m; i++ {
		r := model.AddRow("r", GE, float64(rng.Intn(9)-5))
		for k := 1 + rng.Intn(3); k > 0; k-- {
			model.AddTerm(r, VarID(rng.Intn(n)), float64(1+rng.Intn(3)))
		}
	}
	return model
}

// degenerateLP has zero right-hand sides on most rows, so pivots stall.
func degenerateLP(rng *rand.Rand) *Model {
	n, m := 10+rng.Intn(20), 8+rng.Intn(16)
	model := NewModel("degenerate", Maximize)
	for j := 0; j < n; j++ {
		model.AddVar("x", 0, Inf, float64(1+rng.Intn(5)))
	}
	for i := 0; i < m; i++ {
		rhs := 0.0
		if rng.Intn(4) == 0 {
			rhs = float64(1 + rng.Intn(4))
		}
		r := model.AddRow("r", LE, rhs)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				model.AddTerm(r, VarID(j), float64(rng.Intn(5)-1))
			}
		}
	}
	// A bounding row keeps it from being unbounded every time.
	r := model.AddRow("box", LE, 50)
	for j := 0; j < n; j++ {
		model.AddTerm(r, VarID(j), 1)
	}
	return model
}

// boxedLP has small boxes on every variable and loose rows: most pivots
// resolve as bound flips.
func boxedLP(rng *rand.Rand) *Model {
	n, m := 20+rng.Intn(40), 4+rng.Intn(8)
	model := NewModel("boxed", Maximize)
	for j := 0; j < n; j++ {
		model.AddVar("x", 0, 1, float64(rng.Intn(7)-1))
	}
	for i := 0; i < m; i++ {
		r := model.AddRow("r", LE, float64(n/3+rng.Intn(n)))
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				model.AddTerm(r, VarID(j), float64(1+rng.Intn(3)))
			}
		}
	}
	return model
}

// infeasibleLP is a sliced path LP with a demand its capacity cannot carry.
func infeasibleLP(rng *rand.Rand) *Model {
	model := slicedPathLP(2+rng.Intn(3), 5+rng.Intn(5), 3+rng.Intn(3), 2, 2, 3, rng.Int63())
	r := model.AddRow("demand", GE, 1e4)
	for j := 1; j < model.NumVars(); j++ {
		model.AddTerm(r, VarID(j), 1)
	}
	return model
}

// retShapedLP is slack-heavy: many (edge, slice) capacity rows, few jobs.
// Every third one is large enough for the hypersparse FTRAN to keep a reach
// of several positions (the reach limit is m/hyperDiv).
func retShapedLP(rng *rand.Rand, trial int) *Model {
	edges, slices := 6+rng.Intn(8), 3+rng.Intn(5)
	if trial%3 == 0 {
		edges, slices = 16+rng.Intn(10), 10+rng.Intn(8)
	}
	return slicedPathLP(2+rng.Intn(5), edges, slices, 2+rng.Intn(2), 2, 4, rng.Int63())
}

// colgenShapedLP is a small master of long paths: dense-ish bases.
func colgenShapedLP(rng *rand.Rand, trial int) *Model {
	edges, slices := 6+rng.Intn(4), 2+rng.Intn(3)
	if trial%3 == 0 {
		edges, slices = 14+rng.Intn(6), 6+rng.Intn(4)
	}
	return slicedPathLP(3+rng.Intn(4), edges, slices, 3+rng.Intn(4), 3, 6, rng.Int63())
}

// slackRunLP is a RET probe at a small b: a few live jobs in the corner of a
// wide (edge, slice) grid whose other columns are pinned to [0, 0]. Phase 1
// is then one long run of capacity rows that nothing else touches swapping
// their artificial for their slack — over three refactorization periods of
// 64 of it, so refactorizations in a row find nothing to redo. The last rows
// are each loaded by two boxed columns of their own, sized so that the two
// bound flips phase 1 makes of them leave the row's artificial at
// 0.3 − 0.1 − 0.2 = −2⁻⁵⁵: a −ε basic artificial on an isolated row, whose
// swap goes through the ratio test's t < 0 clamp and comes out at 0.
func slackRunLP(rng *rand.Rand) *Model {
	model := slicedPathLP(2+rng.Intn(2), 4+rng.Intn(3), 3+rng.Intn(3), 2, 2, 3, rng.Int63())
	for idle := 200 + rng.Intn(60); idle > 0; {
		x := model.AddVar("pinned", 0, 0, 0)
		for k := 1 + rng.Intn(3); k > 0 && idle > 0; k, idle = k-1, idle-1 {
			model.AddTerm(model.AddRow("idle", LE, float64(2+rng.Intn(4))), x, 1)
		}
	}
	for k := 3 + rng.Intn(4); k > 0; k-- {
		r := model.AddRow("eps", LE, 0.3)
		model.AddTerm(r, model.AddVar("tenth", 0, 0.1, 0), 1)
		model.AddTerm(r, model.AddVar("fifth", 0, 0.2, 0), 1)
	}
	return model
}

// iterationOptions rotates the pricing rules and refactorization periods
// over the trials; DegenLimit is small so stalls reach the Bland fallback.
func iterationOptions(trial int) Options {
	opt := Options{
		MaxIter:       20000,
		Pricing:       []Pricing{PartialDantzig, Dantzig, Devex, PartialDantzig, Bland}[trial%5],
		RefactorEvery: []int{64, 64, 7, 1}[trial%4],
		DegenLimit:    4,
	}
	return opt
}

// perturbModel changes what a warm start must absorb: a few right-hand sides,
// variable boxes and costs.
func perturbModel(rng *rand.Rand, m *Model) {
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			r := RowID(rng.Intn(m.NumRows()))
			m.SetRHS(r, m.RHS(r)+float64(rng.Intn(5)-2))
		case 1:
			boxOne(rng, m)
		case 2:
			v := VarID(rng.Intn(m.NumVars()))
			m.SetObj(v, m.Obj(v)+float64(rng.Intn(5)-2))
		}
	}
}

// boxOne gives one variable a small box above its lower bound; a nonbasic
// one resting at its upper bound moves, which a re-entry answers by
// refactorizing.
func boxOne(rng *rand.Rand, m *Model) {
	v := VarID(rng.Intn(m.NumVars()))
	lb, _ := m.Bounds(v)
	m.SetBounds(v, lb, lb+float64(rng.Intn(4)))
}

// toggleBounds is the RET probe pattern: columns flip between [0,0] and
// [0,∞), which leaves every nonbasic resting value at 0.
func toggleBounds(rng *rand.Rand, m *Model) {
	for j := 1; j < m.NumVars(); j++ {
		if rng.Float64() < 0.3 {
			if _, ub := m.Bounds(VarID(j)); ub == 0 {
				m.SetBounds(VarID(j), 0, Inf)
			} else {
				m.SetBounds(VarID(j), 0, 0)
			}
		}
	}
}

// TestIterationBitIdenticalToDenseKernels is the contract of the O(changes)
// iteration kernels: over seeded LPs of every kind the solver meets, driven
// through the cold two-phase flow, the warm-start flow (dual simplex, then
// the primal clean-up) and chains of Incremental re-entries, every primal
// iteration enters the column the dense price scan picks from a fresh BTRAN
// (with the cursor where that scan leaves it), holds duals equal to that
// BTRAN in every bit, computes an entering column with the dense FTRAN's
// nonzero list and bits, leaves through the slot the dense ratio test picks
// and keeps the eta count on the refactorization schedule; every dual pivot's
// FTRAN matches likewise; at every point each reduced cost the cache would
// serve equals a fresh evaluation bit for bit, and each block summary marked
// valid is what reading the block's columns one by one returns; and after
// every refactorization that kept the factors, they, xB, the row cover and
// dirty marks and the next BTRAN's duals are those of a full refactorization
// of a copy (checkRefactor). The counts at the end require the run to have
// gone through what the kernels special-case.
//
// Six mutations were checked to fail it: dropping the rowDirty test from
// isolatedRow, accepting a −1 artificial (and −1 slack) there, patching y_r
// in step without staleRow(r); and, for the block index and the factor reuse,
// a bound flip that does not drop its column's block, a dual pivot that
// leaves luCurrent set, and onlySwaps kept through an identical-column swap
// that is not isolated (recomputeXB then skipped). Dropping the Float64bits
// test beside the last one fails it too, on slackRunLP's −ε artificials.
//
// The isolated swaps, the factor reuse and the −ε artificials are what the
// all-artificial start makes of idle inequality rows, so the cold flows here
// run under Options.ArtificialCrash; TestIterationBitIdenticalFromSlackStart
// holds the same flows from the default start.
func TestIterationBitIdenticalToDenseKernels(t *testing.T) {
	run := runIterationKinds(t, true)
	total := run.total
	for _, c := range []struct {
		what string
		n    int
	}{
		{"bound flips", total.flips}, {"pivots under the Bland fallback", total.blandPivots},
		{"dual pivots", total.dualPivots}, {"elided BTRANs", total.elided},
		{"isolated swaps", total.swaps}, {"sparse FTRANs", total.sparse},
		{"valid block summaries", total.validBlocks}, {"refactorizations that kept the factors", total.reusedLU},
		{"refactorizations that kept the duals", total.keptDuals}, {"swaps of a negative artificial", total.clamped},
		{"warm runs", run.warmRuns}, {"re-entries", run.reentries},
		{"infeasible outcomes", run.statuses[Infeasible]}, {"optimal outcomes", run.statuses[Optimal]},
	} {
		if c.n < 20 {
			t.Errorf("only %d %s: the generators no longer exercise the kernels", c.n, c.what)
		}
	}
	if total.maxSwapRun < 64 {
		t.Errorf("no run of isolated swaps spans three refactorization periods of 64 (the longest period one did: %d)", total.maxSwapRun)
	}
}

// TestIterationBitIdenticalFromSlackStart drives the same LPs through the
// same three flows from the default crash basis, where the inequality rows
// that can start on their own slack: the start itself is held to its
// definition (checkCrash), every pivot against the dense kernels as above,
// and the cold flow against SolveWith. The idle rows make no pivot at all
// from this start, so the swap counts are not required; what must still be
// exercised is everything else, and both kinds of inequality row.
//
// Two mutations of crashBasis were checked to fail it: starting an
// inequality row on its slack whatever the sign of its residual, and leaving
// a slack-started row's artificial loose in [0, ∞) instead of pinned.
func TestIterationBitIdenticalFromSlackStart(t *testing.T) {
	run := runIterationKinds(t, false)
	total := run.total
	for _, c := range []struct {
		what string
		n    int
	}{
		{"bound flips", total.flips}, {"pivots under the Bland fallback", total.blandPivots},
		{"dual pivots", total.dualPivots}, {"elided BTRANs", total.elided}, {"sparse FTRANs", total.sparse},
		{"valid block summaries", total.validBlocks},
		{"rows started on their slack", total.crashSlack},
		{"inequality rows started on their artificial", total.crashWrongSign},
		{"warm runs", run.warmRuns}, {"re-entries", run.reentries},
		{"infeasible outcomes", run.statuses[Infeasible]}, {"optimal outcomes", run.statuses[Optimal]},
	} {
		if c.n < 20 {
			t.Errorf("only %d %s: the generators no longer exercise the kernels", c.n, c.what)
		}
	}
}

// iterationRun is what runIterationKinds went through.
type iterationRun struct {
	total                    lockstep
	lps, warmRuns, reentries int
	statuses                 map[Status]int
}

// runIterationKinds drives every generator's LPs through the lock-step
// harness, cold solves starting as Options.ArtificialCrash says, and returns
// what the runs exercised.
func runIterationKinds(t *testing.T, artificialCrash bool) iterationRun {
	kinds := []struct {
		name string
		gen  func(rng *rand.Rand, trial int) *Model
		n    int
	}{
		{"ret_shaped", retShapedLP, 60},
		{"colgen_shaped", colgenShapedLP, 45},
		{"mixed_rows", func(rng *rand.Rand, _ int) *Model { return mixedRowsLP(rng) }, 60},
		{"cover_ge", func(rng *rand.Rand, _ int) *Model { return coverLP(rng) }, 40},
		{"degenerate", func(rng *rand.Rand, _ int) *Model { return degenerateLP(rng) }, 40},
		{"boxed", func(rng *rand.Rand, _ int) *Model { return boxedLP(rng) }, 30},
		{"infeasible", func(rng *rand.Rand, _ int) *Model { return infeasibleLP(rng) }, 30},
		{"slack_run", func(rng *rand.Rand, _ int) *Model { return slackRunLP(rng) }, 25},
	}
	var total lockstep
	lps, statuses := 0, map[Status]int{}
	warmRuns, reentries := 0, 0
	add := func(ls *lockstep) {
		total.pivots += ls.pivots
		total.flips += ls.flips
		total.elided += ls.elided
		total.swaps += ls.swaps
		total.sparse += ls.sparse
		total.dualPivots += ls.dualPivots
		total.blandPivots += ls.blandPivots
		total.validBlocks += ls.validBlocks
		total.reusedLU += ls.reusedLU
		total.keptDuals += ls.keptDuals
		total.clamped += ls.clamped
		total.crashSlack += ls.crashSlack
		total.crashWrongSign += ls.crashWrongSign
		if ls.maxSwapRun >= 3*ls.s.opt.RefactorEvery && ls.s.opt.RefactorEvery > total.maxSwapRun {
			total.maxSwapRun = ls.s.opt.RefactorEvery // the longest period a run of swaps spanned three times
		}
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(kind.name)) * 104729))
			for trial := 0; trial < kind.n; trial++ {
				model := kind.gen(rng, trial)
				opt := iterationOptions(trial)
				opt.ArtificialCrash = artificialCrash
				name := fmt.Sprintf("%s/%d (%v, refactor %d)", kind.name, trial, opt.Pricing, opt.RefactorEvery)
				lps++

				// Cold, against the production solve as a whole too.
				ls := newLockstep(t, name+" cold", model.assemble(opt))
				st := ls.cold()
				add(ls)
				statuses[st]++
				model.bufs = nil // ls.s lives on; solve on fresh buffers
				sol, err := model.SolveWith(opt)
				if err != nil || sol.Status != st || sol.Iters != ls.s.iters {
					t.Fatalf("%s: SolveWith ended %v after %d pivots (err %v), the stepped flow %v after %d",
						name, sol.Status, sol.Iters, err, st, ls.s.iters)
				}
				if st != Optimal && st != Infeasible {
					continue
				}
				s := ls.s

				switch trial % 2 {
				case 0:
					// Warm: perturb a copy, start from the cold basis.
					ws := s.snapshotBasis()
					warmed := model.Clone()
					perturbModel(rng, warmed)
					wl := newLockstep(t, name+" warm", warmed.assemble(opt))
					if wst, ok := wl.warm(ws); ok {
						warmRuns++
						statuses[wst]++
					}
					add(wl)
				case 1:
					// A chain of re-entries on the cold state.
					rl := newLockstep(t, name+" re-entry", s)
					for round := 0; round < 4; round++ {
						toggleBounds(rng, model)
						if round >= 2 {
							boxOne(rng, model)
						}
						rst := rl.reenter(model)
						reentries++
						statuses[rst]++
						if rst != Optimal && rst != Infeasible {
							break
						}
					}
					add(rl)
				}
			}
		})
	}
	t.Logf("%d LPs, %d warm runs, %d re-entries: %d primal pivots (%d bound flips, %d under Bland), %d dual pivots; "+
		"%d BTRANs elided, %d isolated swaps, %d FTRANs finished sparse; %d valid block summaries checked; "+
		"%d refactorizations kept the factors, %d of them the duals too, %d swaps of a negative artificial; outcomes %v",
		lps, warmRuns, reentries, total.pivots, total.flips, total.blandPivots, total.dualPivots,
		total.elided, total.swaps, total.sparse, total.validBlocks,
		total.reusedLU, total.keptDuals, total.clamped, statuses)
	if lps < 300 {
		t.Errorf("only %d LPs", lps)
	}
	return iterationRun{total: total, lps: lps, warmRuns: warmRuns, reentries: reentries, statuses: statuses}
}
