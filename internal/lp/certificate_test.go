package lp

import (
	"math/rand"
	"testing"
)

// demandModel builds the shape the RET probes exercise: minimize nothing
// over x1 + x2 >= 4 with finite column capacities. Pinning x2 to [0,0]
// (the bound-flip the binary search performs) makes it infeasible.
func demandModel() (*Model, VarID, VarID, RowID) {
	m := NewModel("demand", Minimize)
	x1 := m.AddVar("x1", 0, 2, 1)
	x2 := m.AddVar("x2", 0, 3, 1)
	r := m.AddRow("demand", GE, 4)
	m.AddTerm(r, x1, 1)
	m.AddTerm(r, x2, 1)
	return m, x1, x2, r
}

// solveWithCertificate solves m the way SUB-RET's probes take their
// certificates: through an Incremental, whose last outcome exports one.
func solveWithCertificate(m *Model) (*Solution, *Certificate, error) {
	inc := NewIncremental(m, Options{})
	defer inc.Release()
	sol, err := inc.Solve()
	if err != nil {
		return sol, nil, err
	}
	return sol, inc.Certificate(), nil
}

func TestPointCertificateAcceptReject(t *testing.T) {
	m, _, _, _ := demandModel()
	if c := PointCertificate(m, []float64{2, 2}, 0); c == nil || !c.Feasible() {
		t.Fatal("valid point rejected")
	}
	if c := PointCertificate(m, []float64{2, 1}, 0); c != nil {
		t.Fatal("row-violating point accepted")
	}
	if c := PointCertificate(m, []float64{2, 4}, 0); c != nil {
		t.Fatal("bound-violating point accepted")
	}
	if c := PointCertificate(m, []float64{2}, 0); c != nil {
		t.Fatal("wrong-length point accepted")
	}
}

// TestCertificateBoundFlip walks both certificate directions through the
// RET bound-flip pattern: a feasible witness answers while the flipped
// bounds still admit it and declines once they do not; a Farkas ray
// answers while the pinned capacities keep its gap positive and declines
// once a reopened column could absorb it.
func TestCertificateBoundFlip(t *testing.T) {
	m, _, x2, _ := demandModel()
	sol, feasCert, err := solveWithCertificate(m)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v status %v", err, sol.Status)
	}
	if feasCert == nil || !feasCert.Feasible() {
		t.Fatal("optimal solve exported no feasible certificate")
	}
	if feas, ok := m.CheckFeasibleWithCertificate(feasCert); !ok || !feas {
		t.Fatalf("feasible cert on unchanged model: feas=%v ok=%v", feas, ok)
	}

	// Pin x2: now infeasible (x1 alone caps at 2 < 4). The witness uses
	// x2 > 0, so the feasible certificate must decline, not mis-answer.
	m.SetBounds(x2, 0, 0)
	if _, ok := m.CheckFeasibleWithCertificate(feasCert); ok {
		t.Fatal("feasible cert answered after its witness was pinned out")
	}
	sol2, farkas, err := solveWithCertificate(m)
	if err != nil || sol2.Status != Infeasible {
		t.Fatalf("pinned solve: %v status %v", err, sol2.Status)
	}
	if farkas == nil || farkas.Feasible() {
		t.Fatal("infeasible solve exported no Farkas certificate")
	}
	if feas, ok := m.CheckFeasibleWithCertificate(farkas); !ok || feas {
		t.Fatalf("farkas cert on its own model: feas=%v ok=%v", feas, ok)
	}

	// Reopen x2: feasible again. The Farkas gap (4 - 2 - 3 < 0) vanishes,
	// so the ray declines; the original witness is admissible again and
	// answers feasible with no solve.
	m.SetBounds(x2, 0, 3)
	if _, ok := m.CheckFeasibleWithCertificate(farkas); ok {
		t.Fatal("farkas cert answered after the pinned column reopened")
	}
	if feas, ok := m.CheckFeasibleWithCertificate(feasCert); !ok || !feas {
		t.Fatalf("feasible cert after reopening: feas=%v ok=%v", feas, ok)
	}
}

// TestCertificateDriftedRHS: right-hand sides drift between capture and
// check (GE demands drain), and the answer follows the current ones.
func TestCertificateDriftedRHS(t *testing.T) {
	m, _, x2, r := demandModel()
	_, feasCert, err := solveWithCertificate(m)
	if err != nil || feasCert == nil {
		t.Fatalf("solve: %v cert=%v", err, feasCert)
	}
	// Draining the demand only relaxes the GE row: the witness stays valid.
	m.setRHS(r, 1.5)
	if feas, ok := m.CheckFeasibleWithCertificate(feasCert); !ok || !feas {
		t.Fatalf("feasible cert after RHS drain: feas=%v ok=%v", feas, ok)
	}
	// Tightening past the witness's activity (x1+x2 = 4 < 4.5): decline.
	m.setRHS(r, 4.5)
	if _, ok := m.CheckFeasibleWithCertificate(feasCert); ok {
		t.Fatal("feasible cert answered beyond its witness's activity")
	}

	// Farkas direction: capture at rhs 4 with x2 pinned (gap 2), then
	// drain. The gap is recomputed against the current RHS, so at rhs 3
	// it still certifies (gap 1) and at rhs 2 it declines (gap 0).
	m.setRHS(r, 4)
	m.SetBounds(x2, 0, 0)
	_, farkas, err := solveWithCertificate(m)
	if err != nil || farkas == nil || farkas.Feasible() {
		t.Fatalf("pinned solve: %v cert=%+v", err, farkas)
	}
	m.setRHS(r, 3)
	if feas, ok := m.CheckFeasibleWithCertificate(farkas); !ok || feas {
		t.Fatalf("farkas cert at drained rhs 3: feas=%v ok=%v", feas, ok)
	}
	m.setRHS(r, 2)
	if _, ok := m.CheckFeasibleWithCertificate(farkas); ok {
		t.Fatal("farkas cert answered once the drained demand became satisfiable")
	}
}

// TestCertificateRandomSoundness fuzzes the soundness contract: across
// random LPs and random bound flips / RHS drifts, a certificate may
// decline freely but every answer it gives must match a fresh solve.
func TestCertificateRandomSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	answered := 0
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(4)
		m := NewModel("fuzz", Minimize)
		ubs := make([]float64, n)
		vars := make([]VarID, n)
		for j := 0; j < n; j++ {
			ubs[j] = 0.5 + 2.5*rng.Float64()
			vars[j] = m.AddVar("x", 0, ubs[j], rng.Float64())
		}
		var geRows []RowID
		for k, nr := 0, 2+rng.Intn(3); k < nr; k++ {
			op := GE
			if rng.Intn(3) == 0 {
				op = LE
			}
			row := m.AddRow("r", op, 0)
			total := 0.0
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					continue
				}
				c := 0.2 + 1.8*rng.Float64()
				m.AddTerm(row, vars[j], c)
				total += c * ubs[j]
			}
			// RHS near the attainable maximum so bound flips swing the
			// verdict both ways.
			m.setRHS(row, total*(0.4+0.8*rng.Float64()))
			if op == GE {
				geRows = append(geRows, row)
			}
		}
		_, cert, err := solveWithCertificate(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cert == nil {
			continue
		}
		for step := 0; step < 6; step++ {
			j := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				m.SetBounds(vars[j], 0, 0) // pin, as the bisection does
			case 1:
				m.SetBounds(vars[j], 0, ubs[j]) // reopen
			case 2:
				if len(geRows) > 0 { // demand drain
					r := geRows[rng.Intn(len(geRows))]
					m.setRHS(r, m.RHS(r)*rng.Float64())
				}
			}
			feas, ok := m.CheckFeasibleWithCertificate(cert)
			if !ok {
				continue
			}
			answered++
			sol, err := m.SolveWith(Options{})
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			truth := sol.Status == Optimal
			if sol.Status != Optimal && sol.Status != Infeasible {
				t.Fatalf("trial %d step %d: unexpected status %v", trial, step, sol.Status)
			}
			if feas != truth {
				t.Fatalf("trial %d step %d: certificate answered %v but solve says %v", trial, step, feas, sol.Status)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no perturbation was ever answered by a certificate — the fuzz exercised nothing")
	}
}
