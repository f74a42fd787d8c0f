package lp

// cscMatrix is a compressed-sparse-column matrix with nRows rows. Column j
// occupies rowIdx[colPtr[j]:colPtr[j+1]] / val[colPtr[j]:colPtr[j+1]].
// Row indices within a column are not required to be sorted.
type cscMatrix struct {
	nRows  int
	colPtr []int
	rowIdx []int
	val    []float64
}

// nCols returns the number of columns.
func (a *cscMatrix) nCols() int { return len(a.colPtr) - 1 }

// nnz returns the number of stored entries.
func (a *cscMatrix) nnz() int { return len(a.rowIdx) }

// col returns the row indices and values of column j as shared slices.
func (a *cscMatrix) col(j int) ([]int, []float64) {
	s, e := a.colPtr[j], a.colPtr[j+1]
	return a.rowIdx[s:e], a.val[s:e]
}

// colDot returns the dot product of column j with the dense vector y.
func (a *cscMatrix) colDot(j int, y []float64) float64 {
	s, e := a.colPtr[j], a.colPtr[j+1]
	d := 0.0
	for k := s; k < e; k++ {
		d += a.val[k] * y[a.rowIdx[k]]
	}
	return d
}

// addColTimes accumulates scale*column j into the dense vector out.
func (a *cscMatrix) addColTimes(j int, scale float64, out []float64) {
	if scale == 0 {
		return
	}
	s, e := a.colPtr[j], a.colPtr[j+1]
	for k := s; k < e; k++ {
		out[a.rowIdx[k]] += scale * a.val[k]
	}
}

// tripletBuilder accumulates (row, col, value) entries and compiles them
// into a cscMatrix. Duplicate (row, col) entries are summed. A builder is
// reusable: reset empties it and keeps every array, so a model that is
// assembled again and again (warm re-solves, column-generation rounds)
// builds its matrix without allocating once the arrays have grown to size.
type tripletBuilder struct {
	nRows, nCols int
	rows, cols   []int
	vals         []float64

	next          []int // build: next write position of each column
	seenAt, stamp []int // build: duplicate detection, by row
}

func newTripletBuilder(nRows, nCols int) *tripletBuilder {
	return &tripletBuilder{nRows: nRows, nCols: nCols}
}

// reset empties the builder for an nRows×nCols matrix of about nnz entries.
func (t *tripletBuilder) reset(nRows, nCols, nnz int) {
	t.nRows, t.nCols = nRows, nCols
	if cap(t.rows) < nnz {
		nnz += nnz / 8
		t.rows, t.cols, t.vals = make([]int, 0, nnz), make([]int, 0, nnz), make([]float64, 0, nnz)
	}
	t.rows, t.cols, t.vals = t.rows[:0], t.cols[:0], t.vals[:0]
}

func (t *tripletBuilder) add(r, c int, v float64) {
	if v == 0 {
		return
	}
	t.rows = append(t.rows, r)
	t.cols = append(t.cols, c)
	t.vals = append(t.vals, v)
}

// build compiles the triplets into a new matrix.
func (t *tripletBuilder) build() *cscMatrix {
	a := new(cscMatrix)
	t.buildInto(a)
	return a
}

// buildInto compiles the triplets into a, reusing its arrays: a counting
// sort by column that keeps the insertion order within a column, then a
// pass that folds each repeated row index into its first occurrence.
func (t *tripletBuilder) buildInto(a *cscMatrix) {
	a.nRows = t.nRows
	colPtr := grow(a.colPtr, t.nCols+1)
	for j := range colPtr {
		colPtr[j] = 0
	}
	for _, c := range t.cols {
		colPtr[c+1]++
	}
	for j := 0; j < t.nCols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := grow(a.rowIdx, len(t.rows))
	val := a.val
	if cap(val) < len(t.rows) {
		val = make([]float64, len(t.rows), len(t.rows)+len(t.rows)/8)
	}
	val = val[:len(t.rows)]
	next := grow(t.next, t.nCols)
	copy(next, colPtr)
	for k, c := range t.cols {
		p := next[c]
		rowIdx[p] = t.rows[k]
		val[p] = t.vals[k]
		next[c] = p + 1
	}
	t.next = next

	// Merge repeated row indices within each column in place. stamp[r] is
	// the 1-based column that last saw row r, seenAt[r] where it was kept.
	seenAt, stamp := grow(t.seenAt, t.nRows), grow(t.stamp, t.nRows)
	for r := range stamp {
		stamp[r] = 0
	}
	w := 0
	for j := 0; j < t.nCols; j++ {
		s, e := colPtr[j], colPtr[j+1]
		colPtr[j] = w
		for k := s; k < e; k++ {
			r := rowIdx[k]
			if stamp[r] == j+1 {
				val[seenAt[r]] += val[k]
				continue
			}
			stamp[r] = j + 1
			seenAt[r] = w
			rowIdx[w] = r
			val[w] = val[k]
			w++
		}
	}
	colPtr[t.nCols] = w
	t.seenAt, t.stamp = seenAt, stamp
	a.colPtr, a.rowIdx, a.val = colPtr, rowIdx[:w], val[:w]
}

// grow returns s resliced to length n, or a new slice with an eighth of
// headroom (a model under column generation grows a little every round, and
// solver memory passes from model to model) when s is too short. The
// contents are unspecified.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n, n+n/8)
	}
	return s[:n]
}

// rowIndex is the row-wise pattern of a cscMatrix: the columns with a
// stored entry in row r are cols[ptr[r]:ptr[r+1]], ascending. Pricing uses
// it to find the reduced costs a changed dual value invalidates.
type rowIndex struct {
	ptr  []int
	cols []int
}

// build fills the index from a, reusing its arrays.
func (x *rowIndex) build(a *cscMatrix) {
	ptr := grow(x.ptr, a.nRows+1)
	for r := range ptr {
		ptr[r] = 0
	}
	for _, r := range a.rowIdx {
		ptr[r+1]++
	}
	for r := 0; r < a.nRows; r++ {
		ptr[r+1] += ptr[r]
	}
	cols := grow(x.cols, len(a.rowIdx))
	// ptr[r] is advanced to the end of row r while filling, then the whole
	// array shifts back by one row.
	for j := 0; j < a.nCols(); j++ {
		for _, r := range a.rowIdx[a.colPtr[j]:a.colPtr[j+1]] {
			cols[ptr[r]] = j
			ptr[r]++
		}
	}
	copy(ptr[1:], ptr[:a.nRows])
	ptr[0] = 0
	x.ptr, x.cols = ptr, cols
}

// row returns the columns with a stored entry in row r.
func (x *rowIndex) row(r int) []int { return x.cols[x.ptr[r]:x.ptr[r+1]] }
