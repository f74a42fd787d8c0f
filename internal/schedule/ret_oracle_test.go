package schedule

import (
	"testing"

	"wavesched/internal/lp"
)

// retIdentityOpts are the solver options every RET identity test sweeps:
// Dantzig with per-pivot refactorization, the pivot path the mono-vs-
// decomposed harness pins, and the zero value, which every shipped caller
// runs.
var retIdentityOpts = []struct {
	name string
	opts lp.Options
}{{"dantzig", dantzigOpts()}, {"default", lp.Options{}}}

// plainRETSearch is the oracle SolveRET's search is checked against:
// Algorithm 2's binary search on b as the paper states it, run per component
// of the partition SolveRET takes, with a fresh per-b SUB-RET model for every
// probe — no chain, no window fit or bound, no window memo. It returns the
// global b̂ and each component's by Component.Key.
func plainRETSearch(t testing.TB, inst *Instance, cfg RETConfig) (float64, map[string]float64) {
	t.Helper()
	cfg = cfg.withDefaults()
	var bhat float64
	bhats := make(map[string]float64)
	for _, c := range partition(inst, retExtendedLast(inst, cfg.BMax), cfg.Monolithic) {
		feasible := func(b float64) bool {
			t.Helper()
			f, _, _, err := solveSubRET(c.Inst, b, cfg, false)
			if err != nil {
				t.Fatalf("oracle, component {%s}: %v", c.Key, err)
			}
			return f
		}
		if !feasible(cfg.BMax) {
			t.Fatalf("oracle, component {%s}: infeasible at b=%g", c.Key, cfg.BMax)
		}
		hi := 0.0
		if !feasible(0) {
			lo := 0.0
			hi = cfg.BMax
			for hi-lo > retEps {
				mid := (lo + hi) / 2
				if feasible(mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
		}
		bhats[c.Key] = hi
		bhat = max(bhat, hi)
	}
	return bhat, bhats
}

// checkRETAgainstOracle fails, naming the case what, unless res — SolveRET's
// outcome under cfg — found bit for bit the b̂ of plainRETSearch, globally
// and per component.
func checkRETAgainstOracle(t testing.TB, what string, inst *Instance, cfg RETConfig, res *RETResult) {
	t.Helper()
	bhat, bhats := plainRETSearch(t, inst, cfg)
	if res.BHat != bhat {
		t.Fatalf("%s: b̂ = %v, the per-probe oracle finds %v", what, res.BHat, bhat)
	}
	if len(res.BHats) != len(bhats) {
		t.Fatalf("%s: %d per-component b̂ values, the oracle's partition has %d components", what, len(res.BHats), len(bhats))
	}
	for key, want := range bhats {
		if got, ok := res.BHats[key]; !ok || got != want {
			t.Fatalf("%s, component {%s}: b̂ = %v (present %v), the oracle finds %v", what, key, got, ok, want)
		}
	}
}
