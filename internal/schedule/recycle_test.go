package schedule

import (
	"math"
	"reflect"
	"testing"
)

// TestSolveOrderIsInvisible: a solve borrows solver memory that any earlier
// model may have used, at any size, so nothing it returns may depend on what
// ran before it. MaxThroughput and SolveRET (its extraction and probe
// chains, certificates and window memo on) on instance A, then on a larger
// instance B, then on A again return the same plans, byte for byte, and the
// same probe trajectory up to wall time.
func TestSolveOrderIsInvisible(t *testing.T) {
	a, b := retWarmInstance(t), clusteredRETInstance(t, 3, 40)
	type outcome struct {
		zstar, bhat, bFinal uint64
		plans               []string
		probes              []ProbeStep
		iters               int
	}
	run := func(inst *Instance) outcome {
		t.Helper()
		mt, err := MaxThroughput(inst, Config{Solver: partialDantzigOpts()})
		if err != nil {
			t.Fatal(err)
		}
		ret, err := SolveRET(inst, RETConfig{Solver: partialDantzigOpts()})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ret.Probes {
			ret.Probes[i].DurUS = 0
		}
		return outcome{
			zstar: math.Float64bits(mt.ZStar), bhat: math.Float64bits(ret.BHat), bFinal: math.Float64bits(ret.B),
			plans: []string{
				assignmentBytes(mt.LP), assignmentBytes(mt.LPD), assignmentBytes(mt.LPDAR),
				assignmentBytes(ret.LP), assignmentBytes(ret.LPD), assignmentBytes(ret.LPDAR),
			},
			probes: ret.Probes,
			iters:  mt.Stage1Iters + mt.Stage2Iters + ret.LPIters,
		}
	}
	first := run(a)
	if len(first.probes) == 0 || first.bhat == 0 {
		t.Fatal("instance A runs no RET search")
	}
	run(b)
	again := run(a)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("instance A solved after instance B differs from its first solve:\nfirst %+v\nagain %+v", first, again)
	}
}
