package lp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wavesched/internal/telemetry"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	Numerical
	// TimeLimit means the wall-clock budget (Options.TimeLimit) expired
	// before the solve finished; the accompanying error is ErrTimeLimit.
	TimeLimit
)

// ErrTimeLimit is returned (possibly wrapped) when a solve exceeds
// Options.TimeLimit. Callers implementing degradation chains should test
// for it with errors.Is.
var ErrTimeLimit = errors.New("lp: time limit exceeded")

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	case Numerical:
		return "numerical failure"
	case TimeLimit:
		return "time limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Pricing selects the entering-variable rule.
type Pricing int

// Pricing rules.
const (
	// PartialDantzig — the zero value — scans a rotating window of columns
	// and takes the best eligible one, falling back to a full scan when the
	// window has none. Cheaper per iteration than Dantzig on wide problems
	// at the cost of somewhat less greedy pivots; the rule every shipped
	// caller runs.
	PartialDantzig Pricing = iota
	// Dantzig picks the eligible column with the most attractive reduced
	// cost. A test oracle, like Bland.
	Dantzig
	// Bland always picks the lowest-index eligible column; slow but
	// guarantees termination. Every rule falls back to it after
	// Options.DegenLimit degenerate pivots in a row.
	Bland
)

// optTol is the optimality and feasibility tolerance: the reduced cost a
// column must beat to price in, and the step below which a pivot counts as
// degenerate.
const optTol = 1e-7

// pivotTol is the smallest pivot-element magnitude a ratio test accepts.
const pivotTol = 1e-8

// String names the pricing rule for span attributes and logs.
func (p Pricing) String() string {
	switch p {
	case Dantzig:
		return "dantzig"
	case Bland:
		return "bland"
	case PartialDantzig:
		return "partial_dantzig"
	}
	return fmt.Sprintf("Pricing(%d)", int(p))
}

// Options tunes the simplex solver. The zero value selects sensible
// defaults.
type Options struct {
	MaxIter       int // pivot limit; ≤0 selects 200·(rows+cols)+10000
	RefactorEvery int // eta updates between refactorizations; ≤0 selects 64
	Pricing       Pricing
	DegenLimit    int // degenerate pivots before the Bland fallback; ≤0 selects 1000
	// TimeLimit is the wall-clock budget for one solve. When it expires the
	// primal and dual pivot loops abort with ErrTimeLimit (Status
	// TimeLimit). Zero means unlimited. The deadline is checked every
	// deadlineCheckEvery pivots, so very short limits overshoot by at most
	// that many pivots.
	TimeLimit time.Duration
	// Tracer, when non-nil, receives a span per solve plus infeasibility
	// diagnostic events. Nil disables tracing at the cost of a nil check.
	Tracer *telemetry.Tracer
	// WarmStart, when non-nil, seeds the solve from a basis captured by an
	// earlier solve (Solution.Basis) instead of the two-phase cold start:
	// the basis is re-factorized and the dual simplex restores primal
	// feasibility, followed by a primal clean-up pass for objective
	// changes. Intended for repeated solves of one model (or structurally
	// identical models) after RHS, variable-bound, or objective mutations,
	// and for a basis Remap carried from another model. A basis that is not
	// one column per row, or is singular, is squared (see Remap); a
	// structural mismatch or numerical trouble falls back to the cold path
	// (counted in lp_warmstart_fallbacks_total), so supplying a stale basis
	// is safe — just slower.
	WarmStart *Basis
	// CaptureBasis records the final basis on Solution.Basis for Optimal
	// and Infeasible outcomes. Implied by WarmStart != nil.
	CaptureBasis bool
	// Secondary, when non-nil, is a second objective: one coefficient per
	// model variable, in the model's sense. A solve that reaches the optimum
	// of the model's own (primary) objective then continues over the set of
	// primary-optimal points and returns the one that optimizes
	// Σ Secondary[j]·x_j (see lexPhase). When that point is unique — give
	// Secondary no ties — the returned X is a function of the model alone:
	// the same whatever the pricing rule, RefactorEvery, starting basis or
	// row and column order. Objective stays the primary objective, and Duals
	// the primary duals at the optimum the primary pivots reached; Basis is
	// the final one, still optimal for the primary. A second phase that does
	// not end Optimal is the solve's status (Unbounded: the secondary
	// objective is unbounded over the optimal face). Incremental ignores it.
	Secondary []float64
	// ArtificialCrash starts a cold solve with every row on its artificial,
	// where the default puts each inequality row that can on its own slack
	// (see crashBasis). It is set by schedule.RETConfig alone: which optimal
	// SUB-RET vertex a solve ends on still depends on the pivot path, and the
	// all-artificial start is the path its results were tuned on (DESIGN §10).
	// It goes, with the isolated-swap machinery only that start exercises
	// (onlySwaps, the BTRAN elision on swaps, rowCover), when SUB-RET gets a
	// canonical optimum.
	ArtificialCrash bool
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200*(m+n) + 10000
	}
	if o.RefactorEvery <= 0 {
		o.RefactorEvery = 64
	}
	if o.DegenLimit <= 0 {
		o.DegenLimit = 1000
	}
	return o
}

// variable states within the simplex.
const (
	stAtLower int8 = iota
	stAtUpper
	stBasic
)

// simplex is the working state of a bounded-variable revised simplex solve
// over min c·x, A x (+ artificials) = b, l ≤ x ≤ u.
type simplex struct {
	opt     Options
	a       *cscMatrix // structural + slack columns
	b       []float64
	c       []float64 // current-phase costs, length nTotal
	l       []float64 // length nTotal
	u       []float64 // length nTotal
	m       int       // rows
	n       int       // structural + slack columns
	nStruct int       // structural columns only (first nStruct of n)
	art     []float64 // artificial signs; artificial i is column n+i = sign·e_i
	cMin    []float64 // phase-2 (minimization) costs, length nTotal
	negate  bool      // original sense was Maximize: cMin is the negated objective

	basis  []int  // slot -> column
	pos    []int  // column -> slot, or -1
	state  []int8 // column -> stAtLower/stAtUpper/stBasic
	xB     []float64
	factor *basisFactor

	iters      int
	boundFlips int // pivots resolved as bound flips (no basis change)
	degenRun   int
	blandMode  bool
	cursor     int // rotating start for partial pricing

	phase1      bool      // state still holds phase-1 costs (cold infeasible exit)
	scratch     []float64 // length m
	rho, rhoPos []float64 // dual-simplex pivot row B⁻ᵀe_r by row and by position, all zero between its iterations
	unitRow     [1]int    // row index of the artificial column last returned
	deadline    time.Time // zero value: no wall-clock limit
	untilTick   int       // pivots until the next wall-clock check

	// Pricing state (see price). yRow holds the duals the cached reduced
	// costs were computed from; dualsFresh says they are also the duals of
	// the current basis, factorization and costs, bit for bit, so the next
	// price may skip its BTRAN. dj[j] = c_j − a_j·yRow is valid while
	// djGen[j] == gen.
	yRow       []float64 // duals, by row
	dualsFresh bool
	dj         []float64 // cached raw reduced costs, length nTotal
	djGen      []uint32
	gen        uint32
	byRow      *rowIndex // row-wise pattern of a
	colMark    []bool    // dualSimplex's candidate marks, all false between its iterations
	changed    []int     // refreshDuals: rows whose dual changed, capacity m

	// blocks[b] summarizes what price would find in columns
	// [b·priceBlockSize, (b+1)·priceBlockSize); see priceBlock.
	blocks []priceBlock

	// rowCover[r] counts the basic columns with an entry in row r;
	// rowDirty[r] is set when such a column has entered or left the basis
	// since the last refactorization, and dirtied lists those rows.
	// Together they recognize the pivots that leave the duals alone (see
	// step).
	rowCover []int32
	rowDirty []bool
	dirtied  []int32

	// What a refactorization may keep (see refactorize). luCurrent: every
	// basis slot still holds, bit for bit, the column factor.lu was computed
	// from. onlySwaps: every pivot since the last refactorization was an
	// isolated swap that returned xB to its bits, and no nonbasic value has
	// moved — so xB is what recomputeXB would return and every eta on file
	// is the identity.
	luCurrent, onlySwaps bool

	// The last BTRAN of c_B (see solveDuals). yPos is its result by
	// position, valid while yPosOK; outside factor.act it is c_B's entry.
	// ySolves counts the solves that rewrote every position; yRowAt and
	// yDualAt say which one yRow and the dual loop's yDual were last written
	// from in full, so that since then only the rows of act can differ.
	yPos            []float64
	yPosOK          bool
	yDual           []float64
	ySolves         int
	yRowAt, yDualAt int

	// Kernel work since the last flushKernelCounts.
	nBtran, nBtranElided, nRescored, nScanned, nBlockHits int

	// work counts what the kernels have done since the solve began, in
	// entries read: a BTRAN the factors, eta file and positions it reads
	// (btranWork), an FTRAN the nonzeros of its result, a refactorization
	// the factors it builds, pricing and the dual ratio test one per column
	// they read. The columns pricing read are folded in by
	// flushKernelCounts; spent includes those not yet folded. It is a
	// deterministic function of the pivot path, so a budget in it gives the
	// same verdict on every host. workCap, when positive, is the work at
	// which the pivot loops give up with errBudget.
	work, workCap int
}

// errBudget ends a pivot loop whose work reached simplex.workCap.
var errBudget = errors.New("lp: work budget spent")

// spent is the work done since the solve began.
func (s *simplex) spent() int { return s.work + s.nRescored + s.nScanned }

// overBudget reports whether the work cap is set and reached.
func (s *simplex) overBudget() bool { return s.workCap > 0 && s.spent() >= s.workCap }

// priceBlockSize is the number of consecutive columns one pricing summary
// covers. It only trades the cost of a rebuild against the columns a hit
// skips — every setting prices the same column — so it is a constant, like
// hyperDiv. It must not exceed the smallest PartialDantzig window.
const priceBlockSize = 32

// priceBlock caches what scoring a block of columns one by one returns: the
// first eligible column, the leftmost one with the highest score, and that
// score. score(j) is a pure function of state[j], l[j], u[j], c[j], the
// cached reduced cost and optTol, so a summary stays exact until one of those
// is written for a column of the block; every such write clears valid
// (dirtyBlock, dropBlocks). A valid block therefore holds no stale reduced
// cost, and reading its columns again would re-score none and find the same
// three values.
type priceBlock struct {
	valid bool
	first int32 // first column with a positive score, or -1
	best  int32 // leftmost column with the highest score, or -1
	score float64
}

// dirtyBlock drops the pricing summary covering column j. Every write to
// state[j], l[j], u[j], c[j] or djGen[j] comes with one.
func (s *simplex) dirtyBlock(j int) { s.blocks[j/priceBlockSize].valid = false }

// dropBlocks drops every pricing summary.
func (s *simplex) dropBlocks() {
	for b := range s.blocks {
		s.blocks[b].valid = false
	}
}

// deadlineCheckEvery spaces out the wall-clock checks so the time syscall
// stays off the per-pivot hot path.
const deadlineCheckEvery = 64

// startClock arms the wall-clock budget of a solve that starts now.
func (s *simplex) startClock() {
	s.deadline, s.untilTick = time.Time{}, 0
	if s.opt.TimeLimit > 0 {
		s.deadline = time.Now().Add(s.opt.TimeLimit)
	}
}

// deadlineExceeded reports whether the wall-clock budget has expired. It
// only looks at the clock once every deadlineCheckEvery calls — and on the
// first call of each pivot loop, so an already-expired deadline aborts
// before any pivot.
func (s *simplex) deadlineExceeded() bool {
	if s.deadline.IsZero() {
		return false
	}
	if s.untilTick > 0 {
		s.untilTick--
		return false
	}
	s.untilTick = deadlineCheckEvery - 1
	return time.Now().After(s.deadline)
}

// nTotal is the column count including artificials.
func (s *simplex) nTotal() int { return s.n + s.m }

// column returns the sparse column j (structural, slack, or artificial). An
// artificial's single entry is staged in s.unitRow, so the slices are only
// valid until the next call.
func (s *simplex) column(j int) ([]int, []float64) {
	if j < s.n {
		return s.a.col(j)
	}
	i := j - s.n
	s.unitRow[0] = i
	return s.unitRow[:], s.art[i : i+1]
}

// colDotY returns the dot product of column j with the row-indexed vector y.
func (s *simplex) colDotY(j int, y []float64) float64 {
	if j < s.n {
		return s.a.colDot(j, y)
	}
	i := j - s.n
	return s.art[i] * y[i]
}

// nonbasicValue returns the current value of a nonbasic column.
func (s *simplex) nonbasicValue(j int) float64 {
	if s.state[j] == stAtUpper {
		return s.u[j]
	}
	return s.l[j]
}

// basisCol returns the sparse column sitting in basis slot `slot`, valid
// until the next call (see column).
func (s *simplex) basisCol(slot int) ([]int, []float64) { return s.column(s.basis[slot]) }

// refactorize starts a new eta file: it factorizes the current basis, empties
// the file, recomputes the basic values from scratch and restarts the row
// cover — or keeps whichever of those it can show a recomputation would
// return bit for bit.
//
// luFactors.factorize is a deterministic function of the m basis columns in
// slot order, so while luCurrent holds it would rebuild the factors in hand,
// and they stay. When moreover onlySwaps holds, recomputeXB would solve the
// right-hand side it solved last time (a nonbasic slack and a nonbasic
// artificial both rest at 0 and contribute nothing) with the factors it had
// then, and xB still has that result's bits, so it stays too; and every eta
// being dropped is the identity, which BTRAN passes c_B through unchanged,
// so duals that were exact with the file are exact without it and dualsFresh
// is left as the pivot set it. The row cover is kept exact by swapCover, so
// only the dirty marks need clearing. The schedule (who calls this, and
// when) is unchanged, and so is every number the solver reads afterwards.
func (s *simplex) refactorize() error {
	start := time.Now()
	reused := s.luCurrent
	if reused {
		s.factor.dropEtas()
		telRefactorReused.Inc()
	} else {
		if err := s.factor.refactor(s.m, s.basisCol); err != nil {
			return err
		}
		s.work += s.factor.btranWork()
		s.luCurrent = true
		telLUNnz.Set(float64(len(s.factor.lu.lent) + len(s.factor.lu.uent) + s.m))
	}
	telRefactorizations.Inc()
	telRefactorSeconds.Add(time.Since(start).Seconds())
	s.yPosOK = false

	if !reused || !s.onlySwaps {
		s.recomputeXB()
		// Duals computed through a non-identity eta file, or through other
		// factors, round differently from the ones a BTRAN returns now.
		s.dualsFresh = false
	}
	s.onlySwaps = true

	if reused {
		for _, r := range s.dirtied {
			s.rowDirty[r] = false
		}
	} else {
		// The basis may have been installed wholesale: count from scratch.
		for r := range s.rowCover {
			s.rowCover[r], s.rowDirty[r] = 0, false
		}
		for slot := range s.basis {
			rows, _ := s.basisCol(slot)
			for _, r := range rows {
				s.rowCover[r]++
			}
		}
	}
	s.dirtied = s.dirtied[:0]
	return nil
}

// swapCover accounts for column in replacing column out in the basis: both
// changed state, so their pricing summaries go, and the rows either covers
// are dirty until the next refactorization.
func (s *simplex) swapCover(out, in int) {
	s.dirtyBlock(out)
	s.dirtyBlock(in)
	rows, _ := s.column(out)
	for _, r := range rows {
		s.rowCover[r]--
		s.markDirty(r)
	}
	rows, _ = s.column(in)
	for _, r := range rows {
		s.rowCover[r]++
		s.markDirty(r)
	}
}

// markDirty sets rowDirty[r], listing the row the first time.
func (s *simplex) markDirty(r int) {
	if !s.rowDirty[r] {
		s.rowDirty[r] = true
		s.dirtied = append(s.dirtied, int32(r))
	}
}

// recomputeXB sets xB = B⁻¹(b − N x_N) from scratch.
func (s *simplex) recomputeXB() {
	r := s.scratch
	copy(r, s.b)
	for j := 0; j < s.nTotal(); j++ {
		if s.state[j] == stBasic {
			continue
		}
		v := s.nonbasicValue(j)
		if v == 0 {
			continue
		}
		if j < s.n {
			s.a.addColTimes(j, -v, r)
		} else {
			r[j-s.n] -= v * s.art[j-s.n]
		}
	}
	s.factor.ftran(r)
	copy(s.xB, r)
	for i := range r {
		r[i] = 0
	}
}

// staleRowDiv bounds the per-row invalidation of refreshDuals: once more
// than m/staleRowDiv duals have changed, nearly every column has a changed
// dual on one of its handful of rows, and walking those rows to say so
// costs more than the few cached values left would save; the whole cache is
// dropped instead (an O(1) generation bump). Like hyperDiv it is a cost
// rule: either way a cached d_j is only ever served when recomputing it
// would give the same bits.
const staleRowDiv = 8

// dropReducedCosts invalidates every cached reduced cost. Anything that
// changes a phase cost c_j must call it (and clear dualsFresh).
func (s *simplex) dropReducedCosts() {
	s.dropBlocks()
	s.gen++
	if s.gen == 0 { // wrapped: 0 is the per-column stale mark
		for j := range s.djGen {
			s.djGen[j] = 0
		}
		s.gen = 1
	}
}

// staleRow invalidates the cached reduced costs of the columns with an
// entry in row r, its artificial included.
func (s *simplex) staleRow(r int) {
	for _, j := range s.byRow.row(r) {
		s.djGen[j] = 0
		s.dirtyBlock(j)
	}
	s.djGen[s.n+r] = 0
	s.dirtyBlock(s.n + r)
}

// solveDuals brings yPos to B⁻ᵀc_B for the current basis, factors and
// costs. The first solve after a refactorization or a cost change is the
// dense one, and sets act for the factors in hand. Every later one starts
// from the result in hand: no stage writes outside act, and a slot whose
// column changed is an eta pivot, on act, so a position outside it still
// holds c_B's entry. It resets the positions of act from c_B and runs the
// same three stages — the same loops, in the same order, on the same
// operands — so its result is the dense solve's, bit for bit, and only the
// positions of act can differ from the last one's.
func (s *simplex) solveDuals() {
	f, y := s.factor, s.yPos
	if s.yPosOK {
		f.growAct()
		for _, k := range f.act {
			y[k] = s.c[s.basis[k]]
		}
	} else {
		for slot, j := range s.basis {
			y[slot] = s.c[j]
		}
		f.resetAct()
		s.yPosOK = true
		s.ySolves++
	}
	f.btranPos(y)
}

// forRows calls put(k, r) for each position k, and its row r, that a row
// vector last written in full from the dense solve *at may hold stale: the
// positions of act, or all of them after a dense solve it has not seen,
// which it then records in *at.
func (s *simplex) forRows(at *int, put func(k, r int)) {
	perm := s.factor.lu.perm
	if *at == s.ySolves {
		for _, k := range s.factor.act {
			put(k, perm[k])
		}
		return
	}
	for k, r := range perm {
		put(k, r)
	}
	*at = s.ySolves
}

// refreshDuals computes y = B⁻ᵀ c_B into yRow and invalidates the cached
// reduced costs it moves. d_j = c_j − a_j·y is a fixed expression over c_j
// and the duals on column j's rows, so a column none of whose operands
// changed bit pattern still has the d_j a fresh evaluation would return;
// only the columns on rows whose dual changed are marked stale. Since the
// dense solve yRow was last written from in full, only the rows of act can
// have changed.
func (s *simplex) refreshDuals() {
	s.solveDuals()
	s.nBtran++
	s.work += s.factor.btranWork()
	y, changed := s.yRow, s.changed[:0]
	s.forRows(&s.yRowAt, func(k, r int) {
		if v := s.yPos[k]; math.Float64bits(v) != math.Float64bits(y[r]) {
			y[r] = v
			changed = append(changed, r)
		}
	})
	if len(changed) > s.m/staleRowDiv {
		s.dropReducedCosts()
	} else {
		for _, r := range changed {
			s.staleRow(r)
		}
	}
	s.dualsFresh = true
}

// price brings the duals up to date and returns the entering column, or -1
// when the current point is optimal for the phase costs. The BTRAN is
// skipped when the last pivot left the duals in hand exact (dualsFresh), a
// column is re-scored only when its cached reduced cost is stale, and a block
// of columns is read only when its summary is: the scan below visits the
// columns the rule prescribes, but pays a dot product only where an operand
// changed and a column read only where a score input did.
//
// A summary stands in for a block only when the per-column loop would read
// every column of it from here (summarize's condition), so the columns that
// get re-scored, the column chosen and the cursor are that loop's.
func (s *simplex) price() int {
	if s.dualsFresh {
		s.nBtranElided++
	} else {
		s.refreshDuals()
	}
	y := s.yRow

	n := s.nTotal()
	useBland := s.blandMode || s.opt.Pricing == Bland

	// score returns the pricing merit of column j, or 0 when ineligible. Its
	// callers count the columns they read (nScanned): one more statement
	// here and the compiler stops inlining it into their loops.
	score := func(j int) float64 {
		st := s.state[j]
		if st == stBasic || s.l[j] == s.u[j] {
			return 0
		}
		if s.djGen[j] != s.gen {
			s.dj[j] = s.c[j] - s.colDotY(j, y)
			s.djGen[j] = s.gen
			s.nRescored++
		}
		d := s.dj[j]
		if st == stAtLower {
			d = -d // want d < -optTol
		}
		if d <= optTol {
			return 0
		}
		return d
	}

	// summarize returns block b's summary, rebuilding it column by column
	// when it is stale. The caller's scan must be about to read the whole
	// block, so that the rebuild re-scores what that scan would.
	summarize := func(b int) *priceBlock {
		blk := &s.blocks[b]
		if blk.valid {
			s.nBlockHits++
			return blk
		}
		lo := b * priceBlockSize
		hi := lo + priceBlockSize
		if hi > n {
			hi = n
		}
		*blk = priceBlock{valid: true, first: -1, best: -1}
		s.nScanned += hi - lo
		for j := lo; j < hi; j++ {
			if sc := score(j); sc > blk.score {
				if blk.first < 0 {
					blk.first = int32(j)
				}
				blk.best, blk.score = int32(j), sc
			}
		}
		return blk
	}

	if s.opt.Pricing == PartialDantzig && !useBland {
		window := n / 8
		if window < 256 {
			window = 256
		}
		// Scan from the rotating cursor until an eligible column appears,
		// then finish the current window and take the best seen.
		best := -1
		bestScore := optTol
		remaining := -1 // columns left to scan after the first hit
		j := s.cursor % n
		for scanned := 0; scanned < n; {
			if j%priceBlockSize == 0 {
				size := priceBlockSize
				if size > n-j {
					size = n - j
				}
				// The loop reads all of this block if the scan has that many
				// columns left: before the first hit because a hit inside the
				// block opens a window no shorter than a block, after it
				// because the window has that many left.
				if scanned+size <= n && (remaining < 0 || size <= remaining) {
					if blk := summarize(j / priceBlockSize); blk.score > bestScore {
						bestScore = blk.score
						best = int(blk.best)
						if remaining < 0 {
							remaining = window + (int(blk.first) - j)
						}
					}
					if remaining >= 0 {
						remaining -= size
						if remaining <= 0 {
							break
						}
					}
					scanned += size
					if j += size; j == n {
						j = 0
					}
					continue
				}
			}
			s.nScanned++
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
			scanned++
			if j++; j == n {
				j = 0
			}
		}
		if best >= 0 {
			s.cursor = (best + 1) % n
		}
		return best
	}

	if useBland {
		// The first eligible column. The loop stops there, so a stale block
		// is read column by column and summarized only when it has none.
		for b := range s.blocks {
			blk := &s.blocks[b]
			if blk.valid {
				s.nBlockHits++
				if blk.first >= 0 {
					return int(blk.first)
				}
				continue
			}
			lo := b * priceBlockSize
			for j := lo; j < lo+priceBlockSize && j < n; j++ {
				s.nScanned++
				if score(j) > 0 {
					return j
				}
			}
			*blk = priceBlock{valid: true, first: -1, best: -1}
		}
		return -1
	}

	// Dantzig reads every column: the leftmost best of the leftmost bests.
	best := -1
	bestScore := optTol
	for b := range s.blocks {
		if blk := summarize(b); blk.score > bestScore {
			bestScore = blk.score
			best = int(blk.best)
		}
	}
	return best
}

// step performs one simplex iteration with entering column q. It returns
// false with status when the phase ends (unbounded), true otherwise.
func (s *simplex) step(q int) (ok bool, status Status, err error) {
	w, nz := s.factor.ftranCol(s.column(q))
	s.work += len(nz)

	dir := 1.0
	if s.state[q] == stAtUpper {
		dir = -1
	}

	// Ratio test. t is how far the entering variable moves from its bound.
	tBest := math.Inf(1)
	if !math.IsInf(s.u[q], 1) {
		tBest = s.u[q] - s.l[q] // bound flip distance
	}
	leave := -1 // slot of the leaving variable, or -1 for a bound flip
	leaveAtUpper := false
	for _, i := range nz {
		wi := dir * w[i]
		bj := s.basis[i]
		var t float64
		var atUpper bool
		if wi > pivotTol {
			t = (s.xB[i] - s.l[bj]) / wi
			atUpper = false
		} else if wi < -pivotTol {
			if math.IsInf(s.u[bj], 1) {
				continue
			}
			t = (s.u[bj] - s.xB[i]) / (-wi)
			atUpper = true
		} else {
			continue
		}
		if t < 0 {
			t = 0 // basic variable slightly out of bounds: degenerate pivot
		}
		if t < tBest-1e-12 ||
			(t < tBest+1e-12 && leave >= 0 && s.betterLeaving(i, leave, w)) {
			tBest = t
			leave = i
			leaveAtUpper = atUpper
		}
	}

	if math.IsInf(tBest, 1) {
		return false, Unbounded, nil
	}
	if tBest <= optTol {
		s.degenRun++
		if s.degenRun > s.opt.DegenLimit {
			s.blandMode = true
		}
	} else {
		s.degenRun = 0
	}

	// Update basic values: xB ← xB − dir·t·w.
	var xbLeave float64 // the leaving variable's value before the update
	if leave >= 0 {
		xbLeave = s.xB[leave]
	}
	if tBest != 0 {
		for _, i := range nz {
			s.xB[i] -= dir * tBest * w[i]
		}
	}

	if leave < 0 {
		// Bound flip: q moves to its opposite bound; the basis is unchanged.
		if s.state[q] == stAtLower {
			s.state[q] = stAtUpper
		} else {
			s.state[q] = stAtLower
		}
		s.dirtyBlock(q)
		s.onlySwaps = false
		s.iters++
		s.boundFlips++
		return true, Optimal, nil
	}

	// Basis change.
	out := s.basis[leave]
	identical := s.identicalSwap(out, q)
	isolated := identical && s.isolatedRow(out-s.n)
	keepsDuals := s.dualsFresh && isolated
	if leaveAtUpper {
		s.state[out] = stAtUpper
		s.xB[leave] = 0
	} else {
		s.state[out] = stAtLower
	}
	var enterVal float64
	if dir > 0 {
		enterVal = s.l[q] + tBest
	} else {
		enterVal = s.u[q] - tBest
	}
	s.pos[out] = -1
	s.basis[leave] = q
	s.pos[q] = leave
	s.state[q] = stBasic
	s.xB[leave] = enterVal
	s.factor.push(leave, w, nz)
	s.swapCover(out, q)
	s.iters++
	if !identical {
		s.luCurrent = false
	}
	// An isolated swap moves nothing but xB[leave] (w is the slot's unit
	// vector), and a slack rests at 0 as the artificial now does. The ratio
	// test usually hands xB[leave] its own value back, but not from under
	// the t < 0 clamp, and not the sign of a zero.
	if !isolated || q < s.nStruct || math.Float64bits(enterVal) != math.Float64bits(xbLeave) {
		s.onlySwaps = false
	}

	if !keepsDuals {
		s.dualsFresh = false
	}
	if len(s.factor.etas) >= s.opt.RefactorEvery {
		// Clears dualsFresh too, unless it keeps the factors and drops only
		// identity etas (see refactorize).
		if err := s.refactorize(); err != nil {
			return false, Numerical, err
		}
	}
	if s.dualsFresh {
		// The next BTRAN would return yRow with c_q on row r: patch it and
		// let price skip the solve.
		r := out - s.n
		s.yRow[r] = s.c[q]
		s.staleRow(r)
	}
	return true, Optimal, nil
}

// identicalSwap reports whether entering column q is, entry for entry, the
// column out it replaces, so that the basis matrix does not change in any
// bit: out is the artificial ±e_r and q a column whose only entry is that
// same ±1 on row r — the row's slack. (Two equal structural columns would
// qualify too; they are treated as a change.)
func (s *simplex) identicalSwap(out, q int) bool {
	r := out - s.n
	if q >= s.n || r < 0 {
		return false
	}
	rows, vals := s.a.col(q)
	return len(rows) == 1 && rows[0] == r && vals[0] == s.art[r]
}

// isolatedRow reports whether an identical swap on row r — slack for
// artificial, see identicalSwap — moves no dual but y_r: the two columns are
// +e_r, no other basic column has an entry in row r, and none has had one
// since the last refactorization. Row r and the artificial's slot are then a
// 1×1 block of the basis matrix that the factorization and every eta since
// keep apart: the slot's pivot is 1 with empty L and U columns, no other L
// or U column and no eta reaches it (each entering column since had a
// structural zero on row r, and FTRAN never touched the slot), and the eta
// this swap pushes is the identity. BTRAN therefore carries c_B's entry for
// the slot to y_r untouched and computes every other y_i from the operands
// it had before: y changes in y_r = c_q alone, bit for bit.
func (s *simplex) isolatedRow(r int) bool {
	return s.art[r] == 1 && s.rowCover[r] == 1 && !s.rowDirty[r]
}

// betterLeaving is the tie-break for the ratio test: prefer larger pivot
// magnitude for numerical stability, or the smallest basis column when the
// Bland fallback is active.
func (s *simplex) betterLeaving(cand, incumbent int, w []float64) bool {
	if s.blandMode {
		return s.basis[cand] < s.basis[incumbent]
	}
	return math.Abs(w[cand]) > math.Abs(w[incumbent])
}

// runPhase iterates until optimality, unboundedness, or the iteration
// limit for the current cost vector.
func (s *simplex) runPhase() (Status, error) {
	defer s.flushKernelCounts()
	for {
		if s.iters >= s.opt.MaxIter {
			return IterLimit, nil
		}
		if s.deadlineExceeded() {
			telTimeouts.Inc()
			return TimeLimit, ErrTimeLimit
		}
		if s.overBudget() {
			return IterLimit, errBudget
		}
		q := s.price()
		if q < 0 {
			return Optimal, nil
		}
		ok, status, err := s.step(q)
		if err != nil {
			return Numerical, err
		}
		if !ok {
			return status, nil
		}
	}
}

// flushKernelCounts moves the per-pivot kernel tallies to the process-wide
// counters, once per phase rather than once per pivot.
func (s *simplex) flushKernelCounts() {
	s.work += s.nRescored + s.nScanned
	telBtran.Add(int64(s.nBtran))
	telBtranElided.Add(int64(s.nBtranElided))
	telRescored.Add(int64(s.nRescored))
	telScanned.Add(int64(s.nScanned))
	telBlockHits.Add(int64(s.nBlockHits))
	s.nBtran, s.nBtranElided, s.nRescored, s.nScanned, s.nBlockHits = 0, 0, 0, 0, 0
}

// objective returns c·x for the current phase costs and point.
func (s *simplex) objective() float64 {
	obj := 0.0
	for j := 0; j < s.nTotal(); j++ {
		if s.c[j] == 0 {
			continue
		}
		obj += s.c[j] * s.value(j)
	}
	return obj
}

// value returns the current value of any column.
func (s *simplex) value(j int) float64 {
	if s.state[j] == stBasic {
		return s.xB[s.pos[j]]
	}
	return s.nonbasicValue(j)
}
