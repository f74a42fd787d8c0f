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
	// entries, and x/1 is x bit for bit), so solve and solveT visit only
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
// Column j must be eliminated against the earlier pivot positions holding
// a nonzero, in ascending position order. Only a row the scratch has
// touched can be nonzero, so each touched row that is already pivoted puts
// its position on a min-heap, once; and L column k only reaches rows that
// were pivoted after k, so everything pushed while k is being applied sorts
// after k and popping the heap yields the ascending order. That is the set
// and the order a scan over all positions 0..j−1 acts on, hence the same
// floating-point operations, the same order of first touches (which breaks
// pivot ties and orders the L entries) and the same factors, bit for bit.
//
// On errSingular the receiver holds a partial factorization and must not
// be used for solves.
func (f *luFactors) factorize(m int, col func(j int) (rows []int, vals []float64)) error {
	if f.m != m {
		*f = luFactors{
			m: m, perm: make([]int, m), pinv: make([]int, m),
			lptr: make([]int, m+1), uptr: make([]int, m+1),
			udiag: make([]float64, m), work: make([]float64, m),
			isTouched: make([]bool, m),
		}
	}
	f.lent, f.uent, f.lact, f.uact = f.lent[:0], f.uent[:0], f.lact[:0], f.uact[:0]
	for i := range f.pinv {
		f.pinv[i] = -1
	}
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

	for j := 0; j < m; j++ {
		// Scatter column j into the dense scratch.
		rows, vals := col(j)
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
			return errSingular
		}
		d := work[bestRow]
		f.perm[j] = bestRow
		f.pinv[bestRow] = j
		f.udiag[j] = d
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
		touched = touched[:0]
		f.lptr[j+1], f.uptr[j+1] = len(f.lent), len(f.uent)
		if f.lptr[j+1] > f.lptr[j] {
			f.lact = append(f.lact, j)
		}
		if f.uptr[j+1] > f.uptr[j] || d != 1 {
			f.uact = append(f.uact, j)
		}
	}
	f.touched, f.heap = touched, heap
	return nil
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

// solveT computes y with Bᵀ y = c in place: c is indexed by basis position
// on input; the result is indexed by original row on output.
func (f *luFactors) solveT(c []float64) {
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
	// Scatter z from positions to original rows: y[perm[k]] = z[k].
	w := f.work
	for k, r := range f.perm {
		w[r] = c[k]
	}
	copy(c, w)
	for i := range w {
		w[i] = 0
	}
}
