package lp

// eta is one product-form basis update: basis position r was replaced and
// the pivot column (w = B⁻¹ a_enter as of the update) is stored sparsely.
// With E = I + (w − e_r)·e_rᵀ, the new basis is B' = B·E, so
// B'⁻¹ = E⁻¹·B⁻¹ with E⁻¹ = I − (w − e_r)·e_rᵀ / w_r.
type eta struct {
	r    int
	wr   float64   // w[r], the pivot element
	idx  []int     // positions i ≠ r with w[i] ≠ 0
	vals []float64 // corresponding w[i]
}

// basisFactor maintains a factorization of the current basis matrix as
// B = B₀·E₁·…·E_k, where B₀ is LU-factored and the E's are eta updates.
// All vectors passed to ftran/btran are indexed by basis position.
type basisFactor struct {
	lu   *luFactors
	etas []eta

	// spare is the factorization refactor builds into, so that a singular
	// basis leaves lu and the eta file intact; the two swap on success.
	spare *luFactors
	// idx and vals back the etas' entry slices. An append that moves an
	// arena leaves earlier etas on the old block, which stays valid:
	// entries are never rewritten.
	idx  []int
	vals []float64

	// ftranCol's result and bookkeeping, all indexed by basis position. w is
	// all zero outside the positions the last call wrote: touched lists them
	// (mark flags them during a call), or wDense says the call finished with
	// the dense loops and wrote everywhere.
	w       []float64
	mark    []bool
	touched []int
	heap    []int
	nz      []int
	wDense  bool

	// etaAt flags the positions that are the pivot of an eta on file.
	etaAt []bool

	// act lists the positions a BTRAN can write (inAct flags them): those of
	// the LU's uact and lact and the pivots of the first actEtas etas. Every
	// other position passes its entry through all three stages untouched.
	// resetAct rebuilds it for the factors in hand, growAct takes in the etas
	// pushed since.
	act     []int
	inAct   []bool
	actEtas int
}

// hyperDiv sets where ftranCol stops tracking its reach: once more than
// m/hyperDiv positions are touched, the dense loops finish the solve. Under
// that, heap-ordering the reach costs less than the five O(m) passes (copy,
// gather, two clears and the nonzero scan) the dense path spends around the
// same arithmetic; over it, a pass over m contiguous floats is cheaper than
// a heap operation per nonzero. The switch performs the same operations in
// the same order either way, so it is a cost rule only, not a tolerance.
const hyperDiv = 64

// refactor replaces B₀ with a fresh LU of the m×m matrix whose columns col
// returns (see luFactors.factorize) and empties the eta file. On error the
// factorization in use is unchanged.
func (b *basisFactor) refactor(m int, col func(j int) ([]int, []float64)) error {
	if b.spare == nil {
		b.spare = new(luFactors)
	}
	if len(b.w) != m {
		b.clearScratch()
		b.w, b.mark, b.etaAt, b.inAct = grow(b.w, m), grow(b.mark, m), grow(b.etaAt, m), grow(b.inAct, m)
		b.touched, b.heap, b.nz = grow(b.touched, m)[:0], grow(b.heap, m)[:0], grow(b.nz, m)[:0]
		b.act = grow(b.act, m)[:0]
	}
	if err := b.spare.factorize(m, col); err != nil {
		return err
	}
	b.lu, b.spare = b.spare, b.lu
	b.dropEtas()
	return nil
}

// clearScratch zeroes ftranCol's result and marks, the position flags and
// the factors' dense scratch over their whole capacity — what every call
// expects to find — and empties the eta file and act, so that memory another
// solve used, at another size, reads as new.
func (b *basisFactor) clearScratch() {
	clear(b.w[:cap(b.w)])
	clear(b.mark[:cap(b.mark)])
	clear(b.etaAt[:cap(b.etaAt)])
	clear(b.inAct[:cap(b.inAct)])
	b.touched, b.heap, b.nz, b.wDense = b.touched[:0], b.heap[:0], b.nz[:0], false
	b.etas, b.idx, b.vals, b.act, b.actEtas = b.etas[:0], b.idx[:0], b.vals[:0], b.act[:0], 0
	for _, f := range []*luFactors{b.lu, b.spare} {
		if f != nil {
			clear(f.work[:cap(f.work)])
			clear(f.isTouched[:cap(f.isTouched)])
		}
	}
}

// dropEtas empties the eta file, leaving B₀ and its factors as they are:
// what refactor amounts to when the basis matrix is B₀ again.
func (b *basisFactor) dropEtas() {
	for k := range b.etas {
		b.etaAt[b.etas[k].r] = false
	}
	b.etas, b.idx, b.vals, b.actEtas = b.etas[:0], b.idx[:0], b.vals[:0], 0
}

// ftran solves B x = v in place for a dense right-hand side. On input v is
// indexed by original constraint row; on output it is indexed by basis
// position. A sparse column goes through ftranCol instead.
func (b *basisFactor) ftran(v []float64) {
	b.lu.solve(v)
	b.etasFrom(v, 0)
}

// etasFrom applies the eta file to v from update k on.
func (b *basisFactor) etasFrom(v []float64, k int) {
	for ; k < len(b.etas); k++ {
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

// ftranCol solves B·w = a for the sparse column a = (rows, vals), indexed by
// original constraint row, and returns w (indexed by basis position) with
// the ascending list of its nonzero positions. Both belong to the receiver
// and are valid until its next ftranCol.
//
// It is ftran restricted to the positions a can reach, visited in ftran's
// order (factorize's ordered-reach argument, applied three times). Forward:
// only a touched row holds a nonzero, and L column k writes rows pivoted
// after k, so a min-heap of touched positions pops them ascending. Backward:
// U column j writes positions below j, so a max-heap pops them descending.
// Etas apply in file order, and one whose pivot position is untouched
// divides a zero and does nothing, so the file is read only when a touched
// position is an eta pivot (etaAt); and a column of one entry on a position
// with empty L and U columns and no eta is that entry over the pivot. An
// untouched position is a zero that
// every dense step skips (val == 0, xj == 0, t == 0), so the nonzeros of w
// come out of the same floating-point operations in the same order, bit for
// bit; only the sign of a zero can differ (ftran turns an untouched +0 into
// −0 under a negative pivot), and no caller reads that. When the reach
// outgrows m/hyperDiv the dense loops take over from the position the heap
// stands at, which is exact for the same reason.
func (b *basisFactor) ftranCol(rows []int, vals []float64) (w []float64, nz []int) {
	f := b.lu
	w, work, mark := b.w, f.work, b.mark
	if b.wDense {
		for i := range w {
			w[i] = 0
		}
		b.wDense = false
	} else {
		for _, p := range b.touched {
			w[p] = 0
		}
	}
	if len(rows) == 1 {
		// A unit step of every stage: the pivot alone divides.
		if p := f.pinv[rows[0]]; f.lptr[p] == f.lptr[p+1] && f.uptr[p] == f.uptr[p+1] && !b.etaAt[p] {
			w[p] = vals[0] / f.udiag[p]
			b.touched, b.nz = append(b.touched[:0], p), b.nz[:0]
			if w[p] != 0 {
				b.nz = append(b.nz, p)
			}
			return w, b.nz
		}
	}
	limit := f.m / hyperDiv
	touched, heap := b.touched[:0], b.heap[:0]
	// touch records position p as written and reports whether it is new.
	touch := func(p int) bool {
		if mark[p] {
			return false
		}
		mark[p] = true
		touched = append(touched, p)
		return true
	}

	if len(rows) > limit {
		for k, r := range rows {
			work[r] += vals[k]
		}
		return b.finishDense(touched, 0, f.m-1, 0)
	}
	for k, r := range rows {
		work[r] += vals[k]
		if p := f.pinv[r]; touch(p) {
			heap = heapPush(heap, p)
		}
	}
	for len(heap) > 0 {
		if len(touched) > limit {
			return b.finishDense(touched, heap[0], f.m-1, 0)
		}
		var k int
		k, heap = heapPop(heap)
		val := work[f.perm[k]]
		if val == 0 {
			continue
		}
		for _, le := range f.lent[f.lptr[k]:f.lptr[k+1]] {
			if p := f.pinv[le.idx]; touch(p) {
				heap = heapPush(heap, p)
			}
			work[le.idx] -= val * le.val
		}
	}
	for _, p := range touched {
		r := f.perm[p]
		w[p], work[r] = work[r], 0
	}

	// Backward, on a max-heap: position p is keyed m−1−p.
	top := f.m - 1
	for _, p := range touched {
		heap = heapPush(heap, top-p)
	}
	for len(heap) > 0 {
		if len(touched) > limit {
			return b.finishDense(touched, -1, top-heap[0], 0)
		}
		var key int
		key, heap = heapPop(heap)
		j := top - key
		xj := w[j] / f.udiag[j]
		w[j] = xj
		if xj == 0 {
			continue
		}
		for _, ue := range f.uent[f.uptr[j]:f.uptr[j+1]] {
			if touch(ue.idx) {
				heap = heapPush(heap, top-ue.idx)
			}
			w[ue.idx] -= ue.val * xj
		}
	}

	reached := false // an eta pivots on a touched position
	for _, p := range touched {
		if b.etaAt[p] {
			reached = true
			break
		}
	}
	for k := 0; reached && k < len(b.etas); k++ {
		e := &b.etas[k]
		if !mark[e.r] {
			continue
		}
		if len(touched) > limit {
			return b.finishDense(touched, -1, -1, k)
		}
		t := w[e.r] / e.wr
		if t != 0 {
			for i, p := range e.idx {
				touch(p)
				w[p] -= e.vals[i] * t
			}
		}
		w[e.r] = t
	}

	// The nonzero list, ascending: heap-sort the touched positions.
	for _, p := range touched {
		mark[p] = false
		if w[p] != 0 {
			heap = heapPush(heap, p)
		}
	}
	nz = b.nz[:0]
	for len(heap) > 0 {
		var p int
		p, heap = heapPop(heap)
		nz = append(nz, p)
	}
	b.touched, b.heap, b.nz = touched, heap, nz
	return w, nz
}

// finishDense completes an ftranCol with ftran's loops: the forward pass
// from position lfrom up (skipped when negative: the forward pass and the
// gather are done), the backward pass from position ufrom down (likewise),
// and the eta file from update efrom on. The nonzero list then takes a scan.
func (b *basisFactor) finishDense(touched []int, lfrom, ufrom, efrom int) (w []float64, nz []int) {
	f := b.lu
	w = b.w
	for _, p := range touched {
		b.mark[p] = false
	}
	if lfrom >= 0 {
		f.forwardFrom(lfrom)
		f.gather(w)
	}
	if ufrom >= 0 {
		f.backwardFrom(w, ufrom)
	}
	b.etasFrom(w, efrom)
	nz = b.nz[:0]
	for i, v := range w {
		if v != 0 {
			nz = append(nz, i)
		}
	}
	b.touched, b.heap, b.nz, b.wDense = touched[:0], b.heap[:0], nz, true
	return w, nz
}

// btran solves Bᵀ y = c in place. On input c is indexed by basis position;
// on output it is indexed by original constraint row.
func (b *basisFactor) btran(c []float64) {
	b.btranPos(c)
	b.lu.toRows(c)
}

// btranPos is btran without the final scatter: the result stays indexed by
// position (y[lu.perm[k]] = c[k]). It writes the positions of act and no
// other, once growAct has taken in the eta file.
func (b *basisFactor) btranPos(c []float64) {
	for k := len(b.etas) - 1; k >= 0; k-- {
		e := &b.etas[k]
		// (E⁻ᵀ c)_r = c_r − ((w·c − c_r)) / w_r … all other entries unchanged.
		dot := 0.0
		for i, p := range e.idx {
			dot += e.vals[i] * c[p]
		}
		// w·c = dot + w_r·c_r ⇒ adjustment uses only off-pivot entries:
		// c_r ← (c_r − dot·?) — derive: y = E⁻ᵀ c changes only position r:
		// y_r = c_r − ((w−e_r)·c)/w_r = c_r − (dot + (w_r−1)c_r)/w_r.
		c[e.r] = c[e.r] - (dot+(e.wr-1)*c[e.r])/e.wr
	}
	b.lu.solveTPos(c)
}

// resetAct rebuilds act for the factors and eta file in hand.
func (b *basisFactor) resetAct() {
	for _, p := range b.act {
		b.inAct[p] = false
	}
	b.act, b.actEtas = b.act[:0], 0
	for _, p := range b.lu.uact {
		b.addAct(p)
	}
	for _, p := range b.lu.lact {
		b.addAct(p)
	}
	b.growAct()
}

// growAct adds the pivots of the etas pushed since act last took the file in.
func (b *basisFactor) growAct() {
	for ; b.actEtas < len(b.etas); b.actEtas++ {
		b.addAct(b.etas[b.actEtas].r)
	}
}

// addAct puts position p on act.
func (b *basisFactor) addAct(p int) {
	if !b.inAct[p] {
		b.inAct[p] = true
		b.act = append(b.act, p)
	}
}

// btranWork is what one btran reads: the eta file's entries, the LU
// factors' entries and the positions it scatters.
func (b *basisFactor) btranWork() int {
	return len(b.idx) + len(b.lu.lent) + len(b.lu.uent) + len(b.lu.perm)
}

// push records an eta update for basis position r with pivot column w
// (dense, indexed by basis position; nz lists its nonzero positions in
// ascending order). Entries with magnitude below luDropTol are dropped.
func (b *basisFactor) push(r int, w []float64, nz []int) {
	start := len(b.idx)
	for _, p := range nz {
		v := w[p]
		if p == r || (v < luDropTol && v > -luDropTol) {
			continue
		}
		b.idx = append(b.idx, p)
		b.vals = append(b.vals, v)
	}
	b.etas = append(b.etas, eta{r: r, wr: w[r], idx: b.idx[start:], vals: b.vals[start:]})
	b.etaAt[r] = true
}
