package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// restrictedRun is what one restrictedBTRANRun went through.
type restrictedRun struct {
	ls                         *lockstep
	lexSwitches, costReentries int
}

// restrictedBTRANRun drives one generated LP through every place the
// persistent duals (solveDuals) must start over or may carry on, under the
// lock-step harness, which holds the primal duals at every pivot, and ρ, the
// dual ratio test's duals and its candidate marks before every dual pivot,
// to dense BTRANs bit for bit: a cold solve (reused refactorizations that
// drop identity etas under the all-artificial start), the cost switch of
// lexPhase at its optimum and back, and a chain of Incremental re-entries
// whose costs, bounds and
// right-hand sides change, whose dual phases cross refactorizations when the
// period is short.
func restrictedBTRANRun(t *testing.T, seed int64, kind, every int, artificial bool) restrictedRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var model *Model
	switch kind % 5 {
	case 0:
		model = retShapedLP(rng, int(seed%3))
	case 1:
		model = slackRunLP(rng)
	case 2:
		model = mixedRowsLP(rng)
	case 3:
		model = coverLP(rng)
	default:
		model = colgenShapedLP(rng, int(seed%3))
	}
	opt := Options{MaxIter: 20000, RefactorEvery: every, DegenLimit: 4, ArtificialCrash: artificial}
	name := fmt.Sprintf("seed %d, kind %d, refactor %d, artificial %v", seed, kind%5, every, artificial)
	ls := newLockstep(t, name, model.assemble(opt, new(solverBufs)))
	run := restrictedRun{ls: ls}
	st := ls.cold()
	s := ls.s
	if st == Optimal {
		// lexPhase's cost switch: the duals in hand, then the secondary
		// costs, primal pivots under them, and the phase-2 costs back.
		if !s.dualsFresh {
			s.refreshDuals()
		}
		clear(s.c)
		for j := 0; j < model.NumVars(); j++ {
			s.c[j] = float64(rng.Intn(9) - 4)
		}
		s.costsChanged()
		ls.primal()
		copy(s.c, s.cMin)
		s.costsChanged()
		ls.price()
		run.lexSwitches++
	}
	if st != Optimal && st != Infeasible {
		return run
	}
	for round := 0; round < 4; round++ {
		toggleBounds(rng, model)
		v := VarID(rng.Intn(model.NumVars()))
		model.SetObj(v, model.vars[v].obj+float64(1+rng.Intn(3)))
		if round%2 == 1 {
			perturbModel(rng, model)
		}
		rst := ls.reenter(model)
		run.costReentries++
		if rst != Optimal && rst != Infeasible {
			break
		}
	}
	return run
}

// TestRestrictedBTRANBitIdentical is the contract of the persistent duals:
// every BTRAN after the first of a factorization and cost vector starts from
// the last one's result and solves over act alone, and that must be the
// dense solve bit for bit — the primal duals, ρ and the dual loop's y alike —
// across every event that moves act or the costs: refactorizations that keep
// the factors and drop identity etas, refactorizations inside a dual phase,
// the lexicographic cost switch, and re-entries whose costs changed. The
// counts at the end require the runs to have gone through each.
func TestRestrictedBTRANBitIdentical(t *testing.T) {
	var total lockstep
	lex, reentries := 0, 0
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 160; trial++ {
		run := restrictedBTRANRun(t, rng.Int63(), trial, []int{64, 7, 3, 1}[trial%4], trial%3 != 2)
		ls := run.ls
		total.restrictedDuals += ls.restrictedDuals
		total.restrictedRows += ls.restrictedRows
		total.denseRows += ls.denseRows
		total.dualRefactors += ls.dualRefactors
		total.reusedLU += ls.reusedLU
		total.keptDuals += ls.keptDuals
		total.dualPivots += ls.dualPivots
		lex += run.lexSwitches
		reentries += run.costReentries
	}
	t.Logf("%d restricted primal BTRANs; %d dual pivot rows solved restricted, %d dense; %d dual pivots, %d followed by a refactorization; "+
		"%d refactorizations kept the factors, %d the duals too; %d lexicographic switches, %d re-entries with changed costs",
		total.restrictedDuals, total.restrictedRows, total.denseRows, total.dualPivots, total.dualRefactors,
		total.reusedLU, total.keptDuals, lex, reentries)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"restricted primal BTRANs", total.restrictedDuals},
		{"dual pivot rows solved restricted", total.restrictedRows},
		{"dual pivot rows solved dense", total.denseRows},
		{"refactorizations inside a dual phase", total.dualRefactors},
		{"refactorizations that kept the factors", total.reusedLU},
		{"refactorizations that kept the duals", total.keptDuals},
		{"lexicographic switches", lex},
		{"re-entries with changed costs", reentries},
	} {
		if c.n < 20 {
			t.Errorf("only %d %s: the generators no longer exercise the persistent duals", c.n, c.what)
		}
	}
}

// FuzzRestrictedBTRAN runs restrictedBTRANRun on fuzzed seeds, generators,
// refactorization periods and crash bases.
func FuzzRestrictedBTRAN(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), true)
	f.Add(int64(2), uint8(1), uint8(1), true)
	f.Add(int64(3), uint8(2), uint8(2), false)
	f.Add(int64(4), uint8(3), uint8(3), false)
	f.Add(int64(5), uint8(4), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, kind, every uint8, artificial bool) {
		restrictedBTRANRun(t, seed, int(kind), []int{64, 7, 3, 1}[every%4], artificial)
	})
}
