package schedule

import (
	"fmt"
	"testing"
)

// TestRETFastPathByteIdentical is the invariant the whole probe-pruning
// machinery rests on: the shipped search — ceiling on the extraction chain,
// window memo, window fit of the last feasible plan, interval bound, chained
// re-entry, a wide worker pool — finds bit for bit the b̂ of the plain
// per-probe bisection, globally and per component. Both partitions are
// swept, under Dantzig pricing with RefactorEvery 1 and under the default
// options, and the seeds must see both answers without a solve.
func TestRETFastPathByteIdentical(t *testing.T) {
	last := int64(48)
	if testing.Short() {
		last = 42
	}
	answered := map[string]bool{}
	for seed := int64(40); seed < last; seed++ {
		for _, mono := range []bool{true, false} {
			for _, o := range retIdentityOpts {
				inst := clusteredRETInstance(t, 3, seed)
				cfg := RETConfig{Solver: o.opts, Monolithic: mono, Parallelism: 8}
				res, err := SolveRET(inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkRETAgainstOracle(t, fmt.Sprintf("seed %d mono=%v %s", seed, mono, o.name), inst, cfg, res)
				for _, p := range res.Probes {
					answered[p.Cert] = true
				}
			}
		}
	}
	for _, cert := range []string{CertPoint, CertBound} {
		if !answered[cert] {
			t.Errorf("no probe was answered with cert=%s: that half of the fast path was never exercised", cert)
		}
	}
}
