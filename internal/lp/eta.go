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
}

// refactor replaces B₀ with a fresh LU of the m×m matrix whose columns col
// returns (see luFactors.factorize) and empties the eta file. On error the
// factorization in use is unchanged.
func (b *basisFactor) refactor(m int, col func(j int) ([]int, []float64)) error {
	if b.spare == nil {
		b.spare = new(luFactors)
	}
	if err := b.spare.factorize(m, col); err != nil {
		return err
	}
	b.lu, b.spare = b.spare, b.lu
	b.etas, b.idx, b.vals = b.etas[:0], b.idx[:0], b.vals[:0]
	return nil
}

// ftran solves B x = v in place. On input v is indexed by original
// constraint row; on output it is indexed by basis position.
func (b *basisFactor) ftran(v []float64) {
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

// btran solves Bᵀ y = c in place. On input c is indexed by basis position;
// on output it is indexed by original constraint row.
func (b *basisFactor) btran(c []float64) {
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
	b.lu.solveT(c)
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
}
