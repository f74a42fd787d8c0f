package lp

import (
	"errors"
	"math"
	"sort"
)

// errSingular is returned by factorize when the basis matrix is
// numerically singular.
var errSingular = errors.New("lp: singular basis matrix")

// luEntry is one stored entry of an L or U column.
type luEntry struct {
	idx int // L: original row index; U: pivot position (row of U)
	val float64
}

// luFactors holds a sparse LU factorization with row partial pivoting:
// P·B = L·U, where P sends original row perm[k] to position k, L is unit
// lower triangular (stored without the unit diagonal, entries addressed by
// original row index) and U is upper triangular (stored by column, with the
// diagonal kept separately). Columns live in flat arenas that factorize
// refills in place, so a re-factorization of the same shape allocates
// nothing once the arenas have grown to size.
type luFactors struct {
	m     int
	perm  []int     // position -> original row
	pinv  []int     // original row -> position
	lptr  []int     // L column k is lent[lptr[k]:lptr[k+1]]
	lent  []luEntry // in the order elimination first touched the rows
	uptr  []int     // U column j is uent[uptr[j]:uptr[j+1]]
	uent  []luEntry // entries with idx < j, ascending
	udiag []float64

	// lact lists the positions with a nonempty L column, uact those with a
	// nonempty U column or a diagonal other than 1, both ascending. Every
	// other position is an identity step of the triangular solves (no
	// entries, and x/1 is x bit for bit), so solve and solveTPos visit only
	// these and still perform exactly the dense loops' operations.
	lact, uact []int

	work      []float64 // dense scratch, all zero between calls
	touched   []int     // factorize: rows of work written for this column
	isTouched []bool
	heap      []int // factorize: touched pivot positions, a min-heap
}

const luDropTol = 1e-12

// factorize factors the m×m matrix whose column j is the sparse (rows,
// vals) pair col(j) returns (valid until the next call of col). It is a
// left-looking column algorithm with a dense scratch vector and partial
// pivoting by maximum magnitude.
//
// On errSingular the receiver holds a partial factorization and must not
// be used for solves.
func (f *luFactors) factorize(m int, col func(j int) (rows []int, vals []float64)) error {
	f.start(m)
	for j := 0; j < m; j++ {
		rows, vals := col(j)
		if !f.eliminate(j, rows, vals) {
			return errSingular
		}
	}
	return nil
}

// start empties the factors for an m×m factorization.
func (f *luFactors) start(m int) {
	if f.m != m {
		// Grow-only: the arrays keep their capacity for the next size. work
		// and isTouched are zero over all of it between calls.
		f.m = m
		f.perm, f.pinv, f.udiag = grow(f.perm, m), grow(f.pinv, m), grow(f.udiag, m)
		f.lptr, f.uptr = grow(f.lptr, m+1), grow(f.uptr, m+1)
		f.work, f.isTouched = grow(f.work, m), grow(f.isTouched, m)
		f.lptr[0], f.uptr[0] = 0, 0
	}
	f.lent, f.uent, f.lact, f.uact = f.lent[:0], f.uent[:0], f.lact[:0], f.uact[:0]
	for i := range f.pinv {
		f.pinv[i] = -1
	}
}

// eliminate factors the column (rows, vals) into position pos, the next one:
// it eliminates the column against the earlier positions and pivots on its
// largest entry among the rows not pivoted yet. When no such entry reaches
// the singularity threshold it reports false and leaves the factors of
// positions 0..pos−1 as they were.
//
// The column must be eliminated against the earlier pivot positions holding
// a nonzero, in ascending position order. Only a row the scratch has
// touched can be nonzero, so each touched row that is already pivoted puts
// its position on a min-heap, once; and L column k only reaches rows that
// were pivoted after k, so everything pushed while k is being applied sorts
// after k and popping the heap yields the ascending order. That is the set
// and the order a scan over all positions 0..pos−1 acts on, hence the same
// floating-point operations, the same order of first touches (which breaks
// pivot ties and orders the L entries) and the same factors, bit for bit.
func (f *luFactors) eliminate(pos int, rows []int, vals []float64) bool {
	work, isTouched := f.work, f.isTouched
	touched, heap := f.touched[:0], f.heap[:0]
	// touch marks row r written and queues it for elimination if pivoted.
	touch := func(r int) {
		if !isTouched[r] {
			isTouched[r] = true
			touched = append(touched, r)
			if p := f.pinv[r]; p >= 0 {
				heap = heapPush(heap, p)
			}
		}
	}

	// Scatter the column into the dense scratch.
	for k, r := range rows {
		touch(r)
		work[r] += vals[k]
	}
	// Left-looking elimination against the touched pivot positions.
	for len(heap) > 0 {
		var k int
		k, heap = heapPop(heap)
		piv := f.perm[k]
		v := work[piv]
		if v == 0 || math.Abs(v) < luDropTol {
			continue
		}
		f.uent = append(f.uent, luEntry{idx: k, val: v})
		for _, le := range f.lent[f.lptr[k]:f.lptr[k+1]] {
			touch(le.idx)
			work[le.idx] -= v * le.val
		}
		work[piv] = 0
	}
	// Pivot selection: maximum magnitude among unpivoted rows.
	best, bestRow := 0.0, -1
	for _, r := range touched {
		if f.pinv[r] >= 0 {
			continue
		}
		if a := math.Abs(work[r]); a > best {
			best = a
			bestRow = r
		}
	}
	if bestRow < 0 || best < 1e-11 {
		// Clean scratch before bailing out.
		for _, r := range touched {
			work[r] = 0
			isTouched[r] = false
		}
		f.uent = f.uent[:f.uptr[pos]]
		f.touched, f.heap = touched[:0], heap
		return false
	}
	d := work[bestRow]
	f.perm[pos] = bestRow
	f.pinv[bestRow] = pos
	f.udiag[pos] = d
	for _, r := range touched {
		// Rows pivoted in earlier steps were zeroed during elimination;
		// bestRow's pinv was just set, excluding it here as well.
		if f.pinv[r] < 0 {
			if v := work[r]; math.Abs(v) > luDropTol {
				f.lent = append(f.lent, luEntry{idx: r, val: v / d})
			}
		}
		work[r] = 0
		isTouched[r] = false
	}
	f.lptr[pos+1], f.uptr[pos+1] = len(f.lent), len(f.uent)
	if f.lptr[pos+1] > f.lptr[pos] {
		f.lact = append(f.lact, pos)
	}
	if f.uptr[pos+1] > f.uptr[pos] || d != 1 {
		f.uact = append(f.uact, pos)
	}
	f.touched, f.heap = touched[:0], heap
	return true
}

// heapPush adds x to the binary min-heap h.
func heapPush(h []int, x int) []int {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= x {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	return h
}

// heapPop removes and returns the minimum of the nonempty min-heap h.
func heapPop(h []int) (int, []int) {
	top, n := h[0], len(h)-1
	x := h[n] // the last leaf, sifted down from the root
	h = h[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[c] >= x {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = x
	}
	return top, h
}

// solve computes x with B x = v in place: v is both input and output, and
// is indexed by original row on input and by basis position on output.
func (f *luFactors) solve(v []float64) {
	copy(f.work, v)
	f.forwardFrom(0)
	f.gather(v)
	f.backwardFrom(v, f.m-1)
}

// forwardFrom runs the forward substitution y = L⁻¹ P v on the row-indexed
// scratch, over the pivot positions from `from` up. Row perm[k] is final
// once position k is reached (later L columns only reach rows pivoted
// later), so the gather into position order can wait for the end.
func (f *luFactors) forwardFrom(from int) {
	w := f.work
	for _, k := range f.lact[sort.SearchInts(f.lact, from):] {
		val := w[f.perm[k]]
		if val == 0 {
			continue
		}
		for _, le := range f.lent[f.lptr[k]:f.lptr[k+1]] {
			w[le.idx] -= val * le.val
		}
	}
}

// gather moves the scratch into position order (v[k] = work[perm[k]]) and
// zeroes it.
func (f *luFactors) gather(v []float64) {
	w := f.work
	for k, r := range f.perm {
		v[k] = w[r]
	}
	for i := range w {
		w[i] = 0
	}
}

// backwardFrom solves U x = y in place by column-oriented substitution over
// the positions from `from` down; those above it must be final already.
func (f *luFactors) backwardFrom(v []float64, from int) {
	for i := sort.SearchInts(f.uact, from+1) - 1; i >= 0; i-- {
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

// solveTPos solves Bᵀ y = c in place, with c and y indexed by basis
// position (y[perm[k]] = c[k]; toRows moves it to rows). It writes the
// positions of uact and lact and no other.
func (f *luFactors) solveTPos(c []float64) {
	// Solve Uᵀ w = c (forward over positions).
	for _, j := range f.uact {
		s := c[j]
		for _, ue := range f.uent[f.uptr[j]:f.uptr[j+1]] {
			s -= ue.val * c[ue.idx]
		}
		c[j] = s / f.udiag[j]
	}
	// Solve Lᵀ z = w (backward over positions).
	for i := len(f.lact) - 1; i >= 0; i-- {
		k := f.lact[i]
		s := c[k]
		for _, le := range f.lent[f.lptr[k]:f.lptr[k+1]] {
			s -= le.val * c[f.pinv[le.idx]]
		}
		c[k] = s
	}
}

// toRows scatters z in place from positions to original rows: y[perm[k]] = z[k].
func (f *luFactors) toRows(c []float64) {
	w := f.work
	for k, r := range f.perm {
		w[r] = c[k]
	}
	copy(c, w)
	for i := range w {
		w[i] = 0
	}
}
