package schedule

import "testing"

// TestRETFastPathByteIdentical is the invariant the whole probe-pruning
// machinery rests on: turning on every accelerator at once — certificate
// pruning, chained warm re-entry, a wide worker pool — must leave the
// search outcome and the emitted schedule bit-for-bit identical to the
// plain full-solve path. Dantzig pricing with RefactorEvery 1 pins the
// reference pivot path exactly (the PR 5 mono-vs-decomposed harness), and
// both the one-block and the decomposed partition are swept.
func TestRETFastPathByteIdentical(t *testing.T) {
	last := int64(48)
	if testing.Short() {
		last = 42
	}
	anyPruned := false
	for seed := int64(40); seed < last; seed++ {
		for _, mono := range []bool{true, false} {
			inst := clusteredRETInstance(t, 3, seed)
			slow, err := SolveRET(inst, RETConfig{Solver: dantzigOpts(), Monolithic: mono})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := SolveRET(inst, RETConfig{
				Solver: dantzigOpts(), Monolithic: mono,
				WarmStart: true, Certificates: true, Parallelism: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if slow.BHat != fast.BHat || slow.B != fast.B || slow.Rounds != fast.Rounds {
				t.Fatalf("seed %d mono=%v: search outcome differs: slow (b̂=%v b=%v rounds=%d) fast (b̂=%v b=%v rounds=%d)",
					seed, mono, slow.BHat, slow.B, slow.Rounds, fast.BHat, fast.B, fast.Rounds)
			}
			for _, pair := range []struct {
				name       string
				slow, fast *Assignment
			}{{"LP", slow.LP, fast.LP}, {"LPD", slow.LPD, fast.LPD}, {"LPDAR", slow.LPDAR, fast.LPDAR}} {
				if sb, fb := assignmentBytes(pair.slow), assignmentBytes(pair.fast); sb != fb {
					t.Fatalf("seed %d mono=%v: %s schedule differs:\nslow:\n%s\nfast:\n%s",
						seed, mono, pair.name, sb, fb)
				}
			}
			if fast.ProbesPruned > 0 {
				anyPruned = true
			}
		}
	}
	if !anyPruned {
		t.Fatal("no probe was ever certificate-pruned — the fast path was never exercised")
	}
}
