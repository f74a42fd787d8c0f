package lp

import (
	"math"
	"math/rand"
	"testing"
)

// denseToCols converts a dense m×m matrix (row-major) to the parallel
// sparse column slices luFactorize expects.
func denseToCols(m int, a [][]float64) ([][]int, [][]float64) {
	rows := make([][]int, m)
	vals := make([][]float64, m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if a[i][j] != 0 {
				rows[j] = append(rows[j], i)
				vals[j] = append(vals[j], a[i][j])
			}
		}
	}
	return rows, vals
}

// luFactorize factors the matrix given as parallel sparse column slices.
func luFactorize(m int, colRows [][]int, colVals [][]float64) (*luFactors, error) {
	f := new(luFactors)
	err := f.factorize(m, func(j int) ([]int, []float64) { return colRows[j], colVals[j] })
	if err != nil {
		return nil, err
	}
	return f, nil
}

// nonzeroSlots is the list simplex.nonzeros hands to basisFactor.push.
func nonzeroSlots(w []float64) []int {
	var nz []int
	for i, v := range w {
		if v != 0 {
			nz = append(nz, i)
		}
	}
	return nz
}

func matVec(a [][]float64, x []float64) []float64 {
	m := len(a)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out[i] += a[i][j] * x[j]
		}
	}
	return out
}

func matTVec(a [][]float64, x []float64) []float64 {
	m := len(a)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out[j] += a[i][j] * x[i]
		}
	}
	return out
}

func TestLUSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	rows, vals := denseToCols(3, a)
	f, err := luFactorize(3, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{3, -1, 7}
	want := append([]float64(nil), v...)
	f.solve(v)
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("solve identity: got %v want %v", v, want)
		}
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		a := make([][]float64, m)
		for i := range a {
			a[i] = make([]float64, m)
			for j := range a[i] {
				if rng.Float64() < 0.5 {
					a[i][j] = rng.NormFloat64()
				}
			}
			a[i][i] += float64(m) + 1 // diagonal dominance ⇒ nonsingular
		}
		xTrue := make([]float64, m)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rows, vals := denseToCols(m, a)
		f, err := luFactorize(m, rows, vals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		v := matVec(a, xTrue)
		f.solve(v)
		for i := range v {
			if math.Abs(v[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: solve mismatch at %d: got %g want %g", trial, i, v[i], xTrue[i])
			}
		}

		w := matTVec(a, xTrue)
		f.solveT(w)
		for i := range w {
			if math.Abs(w[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: solveT mismatch at %d: got %g want %g", trial, i, w[i], xTrue[i])
			}
		}
	}
}

func TestLUPermutedMatrix(t *testing.T) {
	// Requires row pivoting: zero on the leading diagonal.
	a := [][]float64{
		{0, 2, 0},
		{1, 0, 0},
		{0, 0, 5},
	}
	rows, vals := denseToCols(3, a)
	f, err := luFactorize(3, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	v := matVec(a, x)
	f.solve(v)
	for i := range v {
		if math.Abs(v[i]-x[i]) > 1e-10 {
			t.Fatalf("got %v want %v", v, x)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4}, // rank 1
	}
	rows, vals := denseToCols(2, a)
	if _, err := luFactorize(2, rows, vals); err == nil {
		t.Fatal("expected singular error")
	}
	// All-zero column.
	b := [][]float64{
		{1, 0},
		{0, 0},
	}
	rows, vals = denseToCols(2, b)
	if _, err := luFactorize(2, rows, vals); err == nil {
		t.Fatal("expected singular error for zero column")
	}
}

func TestEtaFtranBtranMatchRefactor(t *testing.T) {
	// Build a basis, apply a column replacement via eta, and compare
	// FTRAN/BTRAN results against a fresh factorization of the updated
	// matrix.
	rng := rand.New(rand.NewSource(11))
	m := 6
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
		a[i][i] += 8
	}
	rows, vals := denseToCols(m, a)
	lu, err := luFactorize(m, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	bf := &basisFactor{lu: lu}

	// Replace basis slot r with a new column q.
	r := 2
	newCol := make([]float64, m)
	for i := range newCol {
		newCol[i] = rng.NormFloat64()
	}
	newCol[r] += 10
	// w = B⁻¹ a_q
	w := append([]float64(nil), newCol...)
	bf.ftran(w)
	bf.push(r, w, nonzeroSlots(w))

	// Updated matrix: column r of a replaced by newCol.
	a2 := make([][]float64, m)
	for i := range a2 {
		a2[i] = append([]float64(nil), a[i]...)
		a2[i][r] = newCol[i]
	}
	rows2, vals2 := denseToCols(m, a2)
	lu2, err := luFactorize(m, rows2, vals2)
	if err != nil {
		t.Fatal(err)
	}
	bf2 := &basisFactor{lu: lu2}

	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	v1 := append([]float64(nil), v...)
	v2 := append([]float64(nil), v...)
	bf.ftran(v1)
	bf2.ftran(v2)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-8 {
			t.Fatalf("ftran mismatch at %d: eta %g fresh %g", i, v1[i], v2[i])
		}
	}

	c1 := append([]float64(nil), v...)
	c2 := append([]float64(nil), v...)
	bf.btran(c1)
	bf2.btran(c2)
	for i := range c1 {
		if math.Abs(c1[i]-c2[i]) > 1e-8 {
			t.Fatalf("btran mismatch at %d: eta %g fresh %g", i, c1[i], c2[i])
		}
	}
}

func TestCSCBuildAndDuplicates(t *testing.T) {
	tb := newTripletBuilder(3, 2)
	tb.add(0, 0, 1)
	tb.add(2, 0, 2)
	tb.add(0, 0, 3) // duplicate, must sum to 4
	tb.add(1, 1, 5)
	tb.add(0, 1, 0) // zero is dropped
	a := tb.build()
	if a.nCols() != 2 || a.nRows != 3 {
		t.Fatalf("dims = %dx%d", a.nRows, a.nCols())
	}
	if a.nnz() != 3 {
		t.Fatalf("nnz = %d, want 3", a.nnz())
	}
	y := []float64{1, 1, 1}
	if d := a.colDot(0, y); math.Abs(d-6) > 1e-12 {
		t.Errorf("colDot(0) = %g, want 6", d)
	}
	out := make([]float64, 3)
	a.addColTimes(1, 2, out)
	if out[1] != 10 {
		t.Errorf("addColTimes: out = %v", out)
	}
}

// ---- Test oracle: the dense-scan kernels the sparse ones replaced ----
//
// Everything from here to TestLUBitIdenticalToDenseScan's generators is the
// previous lu.go / eta.go verbatim (types renamed): the factorization that
// scans every earlier pivot position for every column, and the solves that
// loop over every position. The sparse kernels promise the same
// floating-point operations in the same order, so their results must agree
// with these bit for bit.

type luFactorsDense struct {
	m     int
	perm  []int
	pinv  []int
	lcols [][]luEntry
	ucols [][]luEntry
	udiag []float64
	work  []float64
}

func luFactorizeDenseScan(m int, colRows [][]int, colVals [][]float64) (*luFactorsDense, error) {
	f := &luFactorsDense{
		m:     m,
		perm:  make([]int, m),
		pinv:  make([]int, m),
		lcols: make([][]luEntry, m),
		ucols: make([][]luEntry, m),
		udiag: make([]float64, m),
		work:  make([]float64, m),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	work := f.work
	touched := make([]int, 0, m)
	isTouched := make([]bool, m)

	for j := 0; j < m; j++ {
		// Scatter column j into the dense scratch.
		rows, vals := colRows[j], colVals[j]
		for k, r := range rows {
			if !isTouched[r] {
				isTouched[r] = true
				touched = append(touched, r)
			}
			work[r] += vals[k]
		}
		// Left-looking elimination against previously pivoted columns, in
		// pivot order. Only positions that are nonzero matter; scanning in
		// pivot order keeps dependencies correct.
		var ucol []luEntry
		for k := 0; k < j; k++ {
			piv := f.perm[k]
			v := work[piv]
			if v == 0 || math.Abs(v) < luDropTol {
				continue
			}
			ucol = append(ucol, luEntry{idx: k, val: v})
			for _, le := range f.lcols[k] {
				r := le.idx
				if !isTouched[r] {
					isTouched[r] = true
					touched = append(touched, r)
				}
				work[r] -= v * le.val
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
			return nil, errSingular
		}
		d := work[bestRow]
		f.perm[j] = bestRow
		f.pinv[bestRow] = j
		f.udiag[j] = d
		f.ucols[j] = ucol
		var lcol []luEntry
		for _, r := range touched {
			// Rows pivoted in earlier steps were zeroed during elimination;
			// bestRow's pinv was just set, excluding it here as well.
			if f.pinv[r] < 0 {
				if v := work[r]; math.Abs(v) > luDropTol {
					lcol = append(lcol, luEntry{idx: r, val: v / d})
				}
			}
			work[r] = 0
			isTouched[r] = false
		}
		f.lcols[j] = lcol
		touched = touched[:0]
	}
	return f, nil
}

func (f *luFactorsDense) solve(v []float64) {
	m := f.m
	// Forward: y = L^{-1} P v, computed in pivot order.
	w := f.work
	copy(w, v)
	for k := 0; k < m; k++ {
		val := w[f.perm[k]]
		v[k] = val
		if val == 0 {
			continue
		}
		for _, le := range f.lcols[k] {
			w[le.idx] -= val * le.val
		}
	}
	for i := range w {
		w[i] = 0
	}
	// Backward: solve U x = y with column-oriented substitution.
	for j := m - 1; j >= 0; j-- {
		xj := v[j] / f.udiag[j]
		v[j] = xj
		if xj == 0 {
			continue
		}
		for _, ue := range f.ucols[j] {
			v[ue.idx] -= ue.val * xj
		}
	}
}

func (f *luFactorsDense) solveT(c []float64) {
	m := f.m
	// Solve Uᵀ w = c (forward over positions).
	for j := 0; j < m; j++ {
		s := c[j]
		for _, ue := range f.ucols[j] {
			s -= ue.val * c[ue.idx]
		}
		c[j] = s / f.udiag[j]
	}
	// Solve Lᵀ z = w (backward over positions).
	for k := m - 1; k >= 0; k-- {
		s := c[k]
		for _, le := range f.lcols[k] {
			s -= le.val * c[f.pinv[le.idx]]
		}
		c[k] = s
	}
	// Scatter z from positions to original rows: y[perm[k]] = z[k].
	w := f.work
	for k := 0; k < m; k++ {
		w[f.perm[k]] = c[k]
	}
	copy(c, w)
	for i := range w {
		w[i] = 0
	}
}

type basisFactorDense struct {
	lu   *luFactorsDense
	etas []eta
}

func (b *basisFactorDense) ftran(v []float64) {
	b.lu.solve(v)
	for k := range b.etas {
		e := &b.etas[k]
		t := v[e.r] / e.wr
		if t != 0 {
			for i, p := range e.idx {
				v[p] -= e.vals[i] * t
			}
		}
		v[e.r] = t
	}
}

func (b *basisFactorDense) btran(c []float64) {
	for k := len(b.etas) - 1; k >= 0; k-- {
		e := &b.etas[k]
		dot := 0.0
		for i, p := range e.idx {
			dot += e.vals[i] * c[p]
		}
		c[e.r] = c[e.r] - (dot+(e.wr-1)*c[e.r])/e.wr
	}
	b.lu.solveT(c)
}

func (b *basisFactorDense) push(r int, w []float64) {
	e := eta{r: r, wr: w[r]}
	for p, v := range w {
		if p == r || v == 0 {
			continue
		}
		if v < luDropTol && v > -luDropTol {
			continue
		}
		e.idx = append(e.idx, p)
		e.vals = append(e.vals, v)
	}
	b.etas = append(b.etas, e)
}

// ---- Generators and the bit-identity property ----

// sparseCols is a square matrix as the parallel column slices factorize
// and the oracle both take. Row indices within a column are in insertion
// order, not sorted, like the columns of a cscMatrix.
type sparseCols struct {
	m    int
	rows [][]int
	vals [][]float64
}

func (a *sparseCols) add(j, r int, v float64) {
	a.rows[j] = append(a.rows[j], r)
	a.vals[j] = append(a.vals[j], v)
}

func newSparseCols(m int) *sparseCols {
	return &sparseCols{m: m, rows: make([][]int, m), vals: make([][]float64, m)}
}

// slackHeavyBasis mimics a stage-1 basis: most slots hold a ±1 unit column
// (slack or artificial), the rest a path column with a handful of 1s on
// capacity rows and a slice length on a job row. Unit columns are placed
// before and after the structural columns that load their row, so both the
// trivial pivots and the fill-producing ones occur.
func slackHeavyBasis(rng *rand.Rand) *sparseCols {
	m := 20 + rng.Intn(140)
	a := newSparseCols(m)
	unitRow := rng.Perm(m)
	for j := 0; j < m; j++ {
		if rng.Float64() < 0.6 {
			sign := 1.0
			if rng.Float64() < 0.2 {
				sign = -1
			}
			a.add(j, unitRow[j], sign)
			continue
		}
		a.add(j, unitRow[j], float64(1+rng.Intn(3)))
		for n := 1 + rng.Intn(5); n > 0; n-- {
			a.add(j, rng.Intn(m), 1) // may repeat a row: scatter sums duplicates
		}
	}
	return a
}

// denseishBasis mimics an RET extraction basis: a third to two thirds of
// the entries present, real-valued.
func denseishBasis(rng *rand.Rand) *sparseCols {
	m := 5 + rng.Intn(40)
	a := newSparseCols(m)
	density := 0.3 + 0.4*rng.Float64()
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if i == j || rng.Float64() < density {
				a.add(j, i, rng.NormFloat64())
			}
		}
	}
	return a
}

// cancellingBasis has small-integer entries, so elimination produces exact
// zeros on touched rows (skipped by both kernels, but they stay in the
// touched order), pivot-magnitude ties, and now and then a singular matrix.
func cancellingBasis(rng *rand.Rand) *sparseCols {
	m := 4 + rng.Intn(30)
	a := newSparseCols(m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.35 {
				a.add(j, i, float64(rng.Intn(5)-2))
			}
		}
		a.add(j, rng.Intn(m), 1)
	}
	return a
}

// tinyEntryBasis is a slack-heavy basis salted with entries around
// luDropTol: below it (left in the scratch by elimination, dropped from L)
// and just above it.
func tinyEntryBasis(rng *rand.Rand) *sparseCols {
	a := slackHeavyBasis(rng)
	for n := a.m; n > 0; n-- {
		mag := luDropTol * math.Pow(10, 2*rng.Float64()-1.5)
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		a.add(rng.Intn(a.m), rng.Intn(a.m), mag)
	}
	return a
}

// singularBasis breaks a nonsingular generator's output: a zeroed column,
// a repeated column, or a column that is the sum of two others.
func singularBasis(rng *rand.Rand) *sparseCols {
	a := slackHeavyBasis(rng)
	if rng.Intn(2) == 0 {
		a = denseishBasis(rng)
	}
	j, k, l := rng.Intn(a.m), rng.Intn(a.m), rng.Intn(a.m)
	switch rng.Intn(3) {
	case 0:
		a.rows[j], a.vals[j] = nil, nil
	case 1:
		if j == k {
			k = (j + 1) % a.m
		}
		a.rows[j], a.vals[j] = a.rows[k], a.vals[k]
	case 2:
		a.rows[j] = append(append([]int(nil), a.rows[k]...), a.rows[l]...)
		a.vals[j] = append(append([]float64(nil), a.vals[k]...), a.vals[l]...)
	}
	return a
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVecBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: entry %d = %b (%#x), dense loops give %b (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameFactors requires the sparse factorization to equal the oracle's in
// every stored bit.
func sameFactors(t *testing.T, f *luFactors, d *luFactorsDense) {
	t.Helper()
	for k := 0; k < d.m; k++ {
		if f.perm[k] != d.perm[k] || f.pinv[k] != d.pinv[k] {
			t.Fatalf("position %d: perm/pinv = %d/%d, dense scan gives %d/%d", k, f.perm[k], f.pinv[k], d.perm[k], d.pinv[k])
		}
		if !sameBits(f.udiag[k], d.udiag[k]) {
			t.Fatalf("udiag[%d] = %b, dense scan gives %b", k, f.udiag[k], d.udiag[k])
		}
		for _, c := range []struct {
			name        string
			got, oracle []luEntry
		}{
			{"L", f.lent[f.lptr[k]:f.lptr[k+1]], d.lcols[k]},
			{"U", f.uent[f.uptr[k]:f.uptr[k+1]], d.ucols[k]},
		} {
			if len(c.got) != len(c.oracle) {
				t.Fatalf("%s column %d has %d entries, dense scan gives %d", c.name, k, len(c.got), len(c.oracle))
			}
			for i, e := range c.oracle {
				if c.got[i].idx != e.idx || !sameBits(c.got[i].val, e.val) {
					t.Fatalf("%s column %d entry %d = (%d, %b), dense scan gives (%d, %b)",
						c.name, k, i, c.got[i].idx, c.got[i].val, e.idx, e.val)
				}
			}
		}
	}
}

// rhsVector draws a right-hand side the way the simplex produces them:
// sparse like an entering column or dense like a cost vector, with zeros of
// both signs (Maximize models negate zero costs to −0).
func rhsVector(rng *rand.Rand, m int) []float64 {
	v := make([]float64, m)
	fill := 0.05 + 0.9*rng.Float64()*rng.Float64()
	for i := range v {
		switch {
		case rng.Float64() < fill:
			v[i] = rng.NormFloat64()
		case rng.Intn(3) == 0:
			v[i] = math.Copysign(0, -1)
		}
	}
	return v
}

// TestLUBitIdenticalToDenseScan is the contract of the sparse basis
// kernels: over seeded random bases of every kind the solver meets, the
// heap-ordered factorization returns errSingular for exactly the inputs the
// dense scan does and otherwise the same perm, pinv, udiag and L/U entries
// in every bit; and FTRAN/BTRAN through the active-position lists and the
// shared eta arenas reproduce the dense loops' outputs in every bit,
// signed zeros included, before and after a run of eta updates. The same
// luFactors value is refilled throughout, as refactorize does.
func TestLUBitIdenticalToDenseScan(t *testing.T) {
	gens := []struct {
		name string
		gen  func(*rand.Rand) *sparseCols
		n    int
	}{
		{"slack_heavy", slackHeavyBasis, 80},
		{"denseish", denseishBasis, 60},
		{"cancelling", cancellingBasis, 80},
		{"tiny_entries", tinyEntryBasis, 40},
		{"singular", singularBasis, 40},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(g.name)) * 7919))
			bf := new(basisFactor)
			factored, singular := 0, 0
			for trial := 0; trial < g.n; trial++ {
				a := g.gen(rng)
				col := func(j int) ([]int, []float64) { return a.rows[j], a.vals[j] }
				dense, wantErr := luFactorizeDenseScan(a.m, a.rows, a.vals)
				kept := bf.lu
				gotErr := bf.refactor(a.m, col)
				if gotErr != wantErr {
					t.Fatalf("trial %d (m=%d): refactor error %v, dense scan %v", trial, a.m, gotErr, wantErr)
				}
				if wantErr != nil {
					if bf.lu != kept {
						t.Fatalf("trial %d: a singular basis replaced the factorization in use", trial)
					}
					singular++
					continue
				}
				factored++
				sameFactors(t, bf.lu, dense)

				ref := &basisFactorDense{lu: dense}
				check := func(stage string) {
					for n := 0; n < 4; n++ {
						v := rhsVector(rng, a.m)
						want := append([]float64(nil), v...)
						bf.ftran(v)
						ref.ftran(want)
						sameVecBits(t, stage+" ftran", v, want)
						v = rhsVector(rng, a.m)
						want = append([]float64(nil), v...)
						bf.btran(v)
						ref.btran(want)
						sameVecBits(t, stage+" btran", v, want)
					}
				}
				check("fresh")
				// A run of basis changes: FTRAN an entering column, replace a
				// slot whose pivot element is usable, push the eta on both.
				for e := 0; e < 6; e++ {
					w := rhsVector(rng, a.m)
					wd := append([]float64(nil), w...)
					bf.ftran(w)
					ref.ftran(wd)
					r := rng.Intn(a.m)
					if math.Abs(w[r]) < 1e-6 {
						continue
					}
					bf.push(r, w, nonzeroSlots(w))
					ref.push(r, wd)
				}
				if len(bf.etas) != len(ref.etas) {
					t.Fatalf("trial %d: %d etas, dense push made %d", trial, len(bf.etas), len(ref.etas))
				}
				check("after etas")
			}
			if g.name == "singular" && singular < g.n/2 {
				t.Fatalf("only %d of %d singular-generator bases were singular", singular, g.n)
			}
			if g.name != "singular" && factored < g.n/2 {
				t.Fatalf("only %d of %d bases factored: the generator is not exercising the kernels", factored, g.n)
			}
		})
	}
}
