package lp

import "math"

// Certificate tolerances. A feasible certificate re-uses a solved point,
// so the bound check mirrors the solver's primal tolerance; an infeasible
// certificate normalizes its Farkas ray to ‖y‖∞ ≤ 1, under which the gap
// lower-bounds the phase-1 residual — requiring it to clear the solver's
// own 1e-6 infeasibility threshold keeps certificate verdicts consistent
// with what a real solve would report.
const (
	certPointTol = 1e-7 // bound slack allowed on a feasible witness point
	certZeroTol  = 1e-9 // |z_j| below this counts as zero column price
	certGapMin   = 1e-6 // required Farkas gap, matching coldSolve's threshold
)

// Certificate is a reusable proof object exported by a solved probe:
// either a primal point proving feasibility, or a Farkas ray proving
// infeasibility. After the model's variable bounds change (the RET
// binary search flips out-of-window columns between [0,0] and [0,∞)),
// Model.CheckFeasibleWithCertificate can often answer the new
// feasibility question from the certificate alone — no simplex solve.
//
// Both directions are self-verifying at answer time, so a stale or
// mismatched certificate can only decline to answer, never answer
// wrongly:
//
//   - feasible: the stored point x is re-evaluated against the model's
//     CURRENT rows and bounds — it certifies feasibility iff it still
//     satisfies them, so RHS drift (demands draining between controller
//     epochs only relax GE rows) usually keeps the witness valid.
//   - infeasible: for the stored ray y with ‖y‖∞ ≤ 1 and column prices
//     z_j = y·a_j, any x in the current bounds has
//     y·b − Σ_j sup(z_j·x_j) ≤ 0 if the system is feasible; a positive
//     gap therefore proves infeasibility, and lower-bounds the phase-1
//     residual a cold solve would find.
type Certificate struct {
	feasible     bool
	nVars, nRows int

	// Feasible direction.
	x []float64 // structural point, length nVars

	// Infeasible direction.
	ray   []float64 // Farkas multipliers y, length nRows, ‖y‖∞ ≤ 1
	price []float64 // z_j = y·a_j per structural column, length nVars
}

// Feasible reports the certificate's direction.
func (c *Certificate) Feasible() bool { return c != nil && c.feasible }

// PointCertificate verifies that x (one value per model variable)
// satisfies every row and bound of m within tol (≤ 0 selects certPointTol)
// and wraps it as a feasibility certificate. It returns nil when the
// point does not check out — callers can therefore feed unverified
// heuristic constructions (greedy witnesses) without risking an unsound
// certificate.
func PointCertificate(m *Model, x []float64, tol float64) *Certificate {
	if tol <= 0 {
		tol = certPointTol
	}
	if len(x) != len(m.vars) {
		return nil
	}
	for j, v := range m.vars {
		if x[j] < v.lb-tol || x[j] > v.ub+tol {
			return nil
		}
	}
	for _, r := range m.rows {
		act := 0.0
		for _, t := range r.terms {
			act += t.coef * x[t.col]
		}
		switch r.op {
		case LE:
			if act > r.rhs+tol {
				return nil
			}
		case GE:
			if act < r.rhs-tol {
				return nil
			}
		case EQ:
			if math.Abs(act-r.rhs) > tol {
				return nil
			}
		}
	}
	return &Certificate{
		feasible: true,
		nVars:    len(m.vars),
		nRows:    len(m.rows),
		x:        append([]float64(nil), x...),
	}
}

// feasCertificate wraps an Optimal solution's point as a certificate.
// The point is stored as-is; every later check re-verifies it against
// the rows and bounds in force at answer time, so nothing else needs
// snapshotting.
func feasCertificate(m *Model, sol *Solution) *Certificate {
	if sol == nil || sol.Status != Optimal || len(sol.X) != len(m.vars) {
		return nil
	}
	return &Certificate{
		feasible: true,
		nVars:    len(m.vars),
		nRows:    len(m.rows),
		x:        append([]float64(nil), sol.X...),
	}
}

// farkasCertificate builds an infeasibility certificate from a Farkas ray
// y (row-indexed, any scale). It normalizes y to ‖y‖∞ ≤ 1, prices every
// structural column, verifies the slack sign conditions and that the gap
// under the CURRENT bounds clears certGapMin, and returns nil when the
// ray is not strong enough to certify anything.
func farkasCertificate(m *Model, y []float64) *Certificate {
	if len(y) != len(m.rows) {
		return nil
	}
	norm := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > norm {
			norm = a
		}
	}
	if norm == 0 || math.IsInf(norm, 1) || math.IsNaN(norm) {
		return nil
	}
	c := &Certificate{
		nVars: len(m.vars),
		nRows: len(m.rows),
		ray:   make([]float64, len(m.rows)),
		price: make([]float64, len(m.vars)),
	}
	for k, v := range y {
		c.ray[k] = v / norm
	}
	// Slack sign conditions: a LE row's slack (+e_k, [0,∞)) requires
	// y_k ≤ 0, a GE row's (−e_k, [0,∞)) requires y_k ≥ 0 — otherwise the
	// sup over the slack is +∞ and the ray certifies nothing. Rows never
	// change between probes, so this is checked once at build time.
	for k, r := range m.rows {
		switch r.op {
		case LE:
			if c.ray[k] > certZeroTol {
				return nil
			}
		case GE:
			if c.ray[k] < -certZeroTol {
				return nil
			}
		}
	}
	// z_j = y·a_j per structural column.
	for k, r := range m.rows {
		yk := c.ray[k]
		if yk == 0 {
			continue
		}
		for _, t := range r.terms {
			c.price[t.col] += yk * t.coef
		}
	}
	// The certificate must prove infeasibility of the bounds it was built
	// under, or it is worthless.
	if feasible, ok := m.checkCertificate(c); ok && !feasible {
		return c
	}
	return nil
}

// CheckFeasibleWithCertificate attempts to answer "is the model feasible
// under its CURRENT bounds?" from a certificate captured earlier (same
// shape, possibly different variable bounds or RHS). ok is false when
// the certificate cannot decide — shape mismatch, a feasible witness
// violating the current rows or bounds, a reopened column with positive
// price, or an insufficient Farkas gap — in which case the caller must
// solve. Answers are sound:
// a feasible verdict exhibits a point, an infeasible verdict a ray whose
// gap lower-bounds the phase-1 residual a solve would find.
func (m *Model) CheckFeasibleWithCertificate(c *Certificate) (feasible, ok bool) {
	feasible, ok = m.checkCertificate(c)
	if ok {
		telProbePruned.Inc()
	}
	return feasible, ok
}

// checkCertificate is CheckFeasibleWithCertificate without the telemetry
// side effect, for build-time self-verification.
func (m *Model) checkCertificate(c *Certificate) (feasible, ok bool) {
	if c == nil || c.nVars != len(m.vars) || c.nRows != len(m.rows) {
		return false, false
	}
	if c.feasible {
		// Full re-verification against the current model: O(nnz), roughly
		// the cost of one simplex pricing pass, and sound no matter what
		// drifted (bounds, RHS, even coefficients) since capture.
		for j := range m.vars {
			v := &m.vars[j]
			if c.x[j] < v.lb-certPointTol || c.x[j] > v.ub+certPointTol {
				return false, false
			}
		}
		for k := range m.rows {
			r := &m.rows[k]
			act := 0.0
			for _, t := range r.terms {
				act += t.coef * c.x[t.col]
			}
			switch r.op {
			case LE:
				if act > r.rhs+certPointTol {
					return false, false
				}
			case GE:
				if act < r.rhs-certPointTol {
					return false, false
				}
			case EQ:
				if math.Abs(act-r.rhs) > certPointTol {
					return false, false
				}
			}
		}
		return true, true
	}
	gap := 0.0
	for k := range m.rows {
		gap += c.ray[k] * m.rows[k].rhs
	}
	for j := range m.vars {
		z := c.price[j]
		switch {
		case z > certZeroTol:
			ub := m.vars[j].ub
			if math.IsInf(ub, 1) {
				return false, false // reopened column could absorb the gap
			}
			gap -= z * ub
		case z < -certZeroTol:
			gap -= z * m.vars[j].lb
		}
	}
	if gap > certGapMin {
		return false, true
	}
	return false, false
}

// infeasCertificate extracts a Farkas ray from a simplex state that just
// proved infeasibility, via either exit path:
//
//   - dual-simplex exit (warm solves): the pivot row r with no entering
//     candidate gives the ray y = σ·B⁻ᵀe_r;
//   - cold phase-1 exit: the phase-1 duals y = B⁻ᵀc_B at the positive
//     phase-1 optimum.
func (s *simplex) infeasCertificate(m *Model) *Certificate {
	y := make([]float64, s.m)
	if s.infeasRow >= 0 {
		y[s.infeasRow] = s.infeasSigma
		s.factor.btran(y)
	} else if s.phase1 {
		for slot, j := range s.basis {
			y[slot] = s.c[j]
		}
		s.factor.btran(y)
	} else {
		return nil
	}
	return farkasCertificate(m, y)
}
