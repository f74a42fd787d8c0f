package lp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wavesched/internal/telemetry"
)

func TestIncrementalBasic(t *testing.T) {
	// max 3x + 5y, x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → 36. Then bound y ≤ 3:
	// optimum becomes x=4, y=3 → 27.
	m := NewModel("inc", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	r1 := m.AddRow("r1", LE, 4)
	m.AddTerm(r1, x, 1)
	r2 := m.AddRow("r2", LE, 12)
	m.AddTerm(r2, y, 2)
	r3 := m.AddRow("r3", LE, 18)
	m.AddTerm(r3, x, 3)
	m.AddTerm(r3, y, 2)

	inc := NewIncremental(m, Options{})
	sol, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("first solve: %v %g", sol.Status, sol.Objective)
	}

	m.SetBounds(y, 0, 3)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-27) > 1e-6 {
		t.Fatalf("re-solve: %v %g, want optimal 27", sol.Status, sol.Objective)
	}
	if math.Abs(sol.Value(x)-4) > 1e-6 || math.Abs(sol.Value(y)-3) > 1e-6 {
		t.Errorf("point %v, want (4, 3)", sol.X)
	}

	// Relax the bound back: 36 again.
	m.SetBounds(y, 0, Inf)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("relax re-solve: %v %g, want 36", sol.Status, sol.Objective)
	}
}

func TestIncrementalInfeasibleBounds(t *testing.T) {
	// Force infeasibility via bounds: x + y = 5 with both ≤ 1.
	m := NewModel("incinf", Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 1)
	r := m.AddRow("r", EQ, 5)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, 1)

	inc := NewIncremental(m, Options{})
	sol, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("first: %v", sol.Status)
	}
	m.SetBounds(x, 0, 1)
	m.SetBounds(y, 0, 1)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("re-solve: %v, want infeasible", sol.Status)
	}
	// Recovery: restore bounds; the wrapper falls back to a full solve.
	m.SetBounds(x, 0, Inf)
	m.SetBounds(y, 0, Inf)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("recovery: %v %g", sol.Status, sol.Objective)
	}
}

func TestIncrementalStructureChange(t *testing.T) {
	m := NewModel("grow", Maximize)
	x := m.AddVar("x", 0, 5, 1)
	r := m.AddRow("r", LE, 4)
	m.AddTerm(r, x, 1)
	inc := NewIncremental(m, Options{})
	sol, err := inc.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol, err)
	}
	// Adding a variable forces a full re-solve.
	y := m.AddVar("y", 0, 2, 1)
	m.AddTerm(r, y, 1)
	sol, err = inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("after growth: %v %g, want 4", sol.Status, sol.Objective)
	}
	_ = y
}

// TestIncrementalItersCumulative: a structure change makes the next Solve a
// full one on a freshly assembled simplex, and Iters still counts the
// pivots of every solve since the first; each Solve's pivots and status go
// to lp_pivots_total and lp_solves_total as a SolveWith's do.
func TestIncrementalItersCumulative(t *testing.T) {
	read := func(name string, labels map[string]string) int64 {
		v, ok := telemetry.Default().CounterValue(name, labels)
		if !ok {
			t.Fatalf("counter %s not registered", name)
		}
		return v
	}
	optimal := map[string]string{"status": Optimal.String()}
	pivots0, solves0 := read("lp_pivots_total", nil), read("lp_solves_total", optimal)

	m := NewModel("cumulative", Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	for _, r := range []struct {
		rhs    float64
		cx, cy float64
	}{{4, 1, 0}, {12, 0, 2}, {18, 3, 2}} {
		row := m.AddRow("", LE, r.rhs)
		m.AddTerm(row, x, r.cx)
		m.AddTerm(row, y, r.cy)
	}
	inc := NewIncremental(m, Options{})
	first, err := inc.Solve()
	if err != nil || first.Status != Optimal || first.Iters == 0 {
		t.Fatalf("first solve: %+v, %v", first, err)
	}
	row := m.AddRow("", LE, 5) // a new row: the next Solve is a full one
	m.AddTerm(row, x, 1)
	m.AddTerm(row, y, 1)
	second, err := inc.Solve()
	if err != nil || second.Status != Optimal || second.Iters == 0 {
		t.Fatalf("second solve: %+v, %v", second, err)
	}
	if got, want := inc.Iters(), first.Iters+second.Iters; got != want {
		t.Errorf("Iters() = %d after solves of %d and %d pivots, want %d", got, first.Iters, second.Iters, want)
	}
	if got, want := read("lp_pivots_total", nil)-pivots0, int64(inc.Iters()); got != want {
		t.Errorf("lp_pivots_total delta = %d, want the %d pivots of both solves", got, want)
	}
	if got := read("lp_solves_total", optimal) - solves0; got != 2 {
		t.Errorf("lp_solves_total{status=optimal} delta = %d, want 2", got)
	}
	inc.Release()
	if got := inc.Iters(); got != 0 {
		t.Errorf("Iters() = %d after Release, want 0", got)
	}
}

// TestSolveWithIsCounted: a plain SolveWith counts in the solve counters and
// is traced as one lp.solve span.
func TestSolveWithIsCounted(t *testing.T) {
	m, _, _, _ := textbookModel()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	solves, pivots := telSolvesByStatus[Optimal].Value(), telPivots.Value()
	sol, err := m.SolveWith(Options{Tracer: tr})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("got %v, %v", sol, err)
	}
	if d := telSolvesByStatus[Optimal].Value() - solves; d != 1 {
		t.Errorf(`lp_solves_total{status="optimal"} moved by %d, want 1`, d)
	}
	if d := telPivots.Value() - pivots; d != int64(sol.Iters) {
		t.Errorf("lp_pivots_total moved by %d, want the solve's %d pivots", d, sol.Iters)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct{ Name string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, rec.Name)
	}
	if len(spans) != 1 || spans[0] != "lp.solve" {
		t.Errorf("spans %q, want one lp.solve", spans)
	}
}

// TestIncrementalMatchesFreshSolve drives random bound-change sequences
// and compares every re-solve against a from-scratch solve.
func TestIncrementalMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(5)
		mr := 2 + rng.Intn(5)
		m := NewModel("rnd", Minimize)
		vars := make([]VarID, n)
		for j := range vars {
			vars[j] = m.AddVar("v", 0, float64(2+rng.Intn(8)), float64(rng.Intn(11)-5))
		}
		for i := 0; i < mr; i++ {
			op := []RelOp{LE, GE, EQ}[rng.Intn(3)]
			r := m.AddRow("", op, float64(rng.Intn(12)))
			for j := range vars {
				if rng.Float64() < 0.6 {
					m.AddTerm(r, vars[j], float64(rng.Intn(7)-3))
				}
			}
		}
		inc := NewIncremental(m, Options{})
		if _, err := inc.Solve(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			// Random bound tightening/loosening on a random variable.
			v := vars[rng.Intn(n)]
			lb := float64(rng.Intn(3))
			ub := lb + float64(rng.Intn(6))
			m.SetBounds(v, lb, ub)

			got, err := inc.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Fatalf("trial %d step %d: status %v vs fresh %v", trial, step, got.Status, want.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-5*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d step %d: objective %g vs fresh %g", trial, step, got.Objective, want.Objective)
			}
			if got.PrimalInfeas > 1e-6 {
				t.Fatalf("trial %d step %d: infeasible point (%g)", trial, step, got.PrimalInfeas)
			}
		}
	}
}

// TestReentryGivesUpAtItsBudget: a re-entry whose work reaches the chain's
// reference — here its first, optimal full solve — gives up and starts over.
// The first solve ends on the slack basis of y_i ≥ x_i without a pivot.
// Raising every x_i's lower bound then leaves each row's slack negative, and
// the dual pivots that repair them, two BTRANs each, outgrow that solve's
// one factorization, BTRAN and pricing scan. The fallback is a cold solve,
// bit for bit SolveWith's; the span says the re-entry ran out of budget and
// how many pivots it spent, which count in lp_pivots_total with the rest,
// so that counter still moves by the phase counters' sum. The first solve
// is cold, or a warm start from a basis CaptureBasis took, which carries no
// reference of its own: its work is the reference then.
func TestReentryGivesUpAtItsBudget(t *testing.T) {
	const n = 12
	for _, seeded := range []bool{false, true} {
		m := NewModel("budget", Minimize)
		xs := make([]VarID, n)
		for i := range xs {
			xs[i] = m.AddVar("x", 0, Inf, 0)
			y := m.AddVar("y", 0, Inf, float64(1+i%3))
			r := m.AddRow("y_covers_x", LE, 0)
			m.AddTerm(r, xs[i], 1)
			m.AddTerm(r, y, -1)
		}
		var buf bytes.Buffer
		tr := telemetry.NewTracer(&buf)
		inc := NewIncremental(m, Options{Tracer: tr})
		defer inc.Release()
		if seeded {
			captured, err := m.SolveWith(Options{CaptureBasis: true})
			if err != nil || captured.Basis == nil {
				t.Fatalf("capture: %+v, %v", captured, err)
			}
			inc.SeedBasis(captured.Basis)
		}
		if sol, err := inc.Solve(); err != nil || sol.Status != Optimal || sol.Iters != 0 || (sol.Warm == "hit") != seeded {
			t.Fatalf("seeded=%v: first solve: %+v, %v; want optimal on the slack basis", seeded, sol, err)
		}
		for _, x := range xs {
			m.SetBounds(x, 1, Inf)
		}
		var sol *Solution
		pivots, phases := pivotDeltas(func() {
			var err error
			if sol, err = inc.Solve(); err != nil {
				t.Fatal(err)
			}
		})
		if !inc.full {
			t.Fatalf("seeded=%v: the re-entry did not give up", seeded)
		}
		cold, err := m.SolveWith(Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, "fallback vs cold SolveWith", cold, sol)
		if pivots != phases {
			t.Errorf("seeded=%v: lp_pivots_total moved by %d, the phase counters by %d", seeded, pivots, phases)
		}

		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		type span struct {
			Incremental, Reentry string
			Iters                int
			ReentryIters         int `json:"reentry_iters"`
		}
		var spans []span
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec struct {
				Name  string
				Attrs json.RawMessage
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Name == "lp.solve" {
				var sp span
				if err := json.Unmarshal(rec.Attrs, &sp); err != nil {
					t.Fatal(err)
				}
				spans = append(spans, sp)
			}
		}
		if len(spans) != 2 {
			t.Fatalf("seeded=%v: %d lp.solve spans, want 2", seeded, len(spans))
		}
		sp := spans[1]
		if sp.Incremental != "full" || sp.Reentry != "budget" || sp.ReentryIters == 0 {
			t.Errorf("seeded=%v: span: incremental=%q reentry=%q reentry_iters=%d, want full, budget and the re-entry's pivots",
				seeded, sp.Incremental, sp.Reentry, sp.ReentryIters)
		}
		if got := int64(sp.Iters + sp.ReentryIters); got != pivots {
			t.Errorf("seeded=%v: span iters %d + reentry_iters %d = %d, want the %d pivots counted",
				seeded, sp.Iters, sp.ReentryIters, got, pivots)
		}
	}
}

// TestReentryUnboundedCleanupStartsOver: a re-entry whose primal clean-up
// ends Unbounded is not believed — branch and bound would end the whole
// search on it — but solved again cold, which here confirms it. The first
// solve sits at x = y = 0; making x attractive lets x − y ≤ 5 hold along
// x = y → ∞.
func TestReentryUnboundedCleanupStartsOver(t *testing.T) {
	m := NewModel("unbounded_cleanup", Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 0)
	r := m.AddRow("r", LE, 5)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, -1)
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	inc := NewIncremental(m, Options{Tracer: tr})
	defer inc.Release()
	if sol, err := inc.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("first solve: %+v, %v", sol, err)
	}
	m.SetObj(x, -1)
	sol, err := inc.Solve()
	if err != nil || sol.Status != Unbounded {
		t.Fatalf("second solve: %+v, %v; want Unbounded", sol, err)
	}
	if !inc.full {
		t.Error("the re-entry's Unbounded clean-up was returned instead of a cold solve's")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"reentry":"cleanup"`) {
		t.Errorf("no lp.solve span with reentry=cleanup in\n%s", buf.String())
	}
}

// TestIncrementalMaxIterIsPerSolve: Options.MaxIter caps each solve of a
// chain, not the chain's running total, so a long chain of cheap re-entries
// — branch and bound's — never ends in IterLimit for pivots earlier solves
// spent.
func TestIncrementalMaxIterIsPerSolve(t *testing.T) {
	const maxIter = 4
	m := NewModel("per_solve", Maximize)
	x := m.AddVar("x", 0, 4, 1)
	y := m.AddVar("y", 0, 4, 1)
	r := m.AddRow("r", LE, 6)
	m.AddTerm(r, x, 1)
	m.AddTerm(r, y, 1)
	inc := NewIncremental(m, Options{MaxIter: maxIter})
	defer inc.Release()
	for k := 0; k < 40; k++ {
		ub := float64(k % 4)
		m.SetBounds(x, 0, ub)
		sol, err := inc.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve %d (%d pivots so far): %+v, %v", k, inc.Iters(), sol, err)
		}
		if want := math.Min(6, ub+4); sol.Objective != want {
			t.Fatalf("solve %d: objective %g, want %g", k, sol.Objective, want)
		}
	}
	if inc.Iters() <= maxIter {
		t.Fatalf("the chain spent %d pivots, not more than one solve's cap", inc.Iters())
	}
}
