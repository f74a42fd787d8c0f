package schedule

import (
	"testing"

	"wavesched/internal/netgraph"
	"wavesched/internal/workload"
)

// probeAnswers counts what checkRETProbeAnswers saw.
type probeAnswers struct{ fits, refuted int }

// checkRETProbeAnswers holds the RET search's two answers without a solve
// to a fresh per-b SUB-RET solve at each b of bs: a stored plan that fits
// the windows of b means the LP at b is feasible, and the interval bound
// refuting b means it is infeasible. The instance is the clustered one of
// seed; the stored plan is the ceiling's, then that of a probe-chain solve
// at bPlan. A nonzero shift overrides every edge's capacity over four
// slices, one wavelength less when odd and two more when even, so the
// bound must read capacity overrides as the LP does.
func checkRETProbeAnswers(t *testing.T, seed int64, clusters int, bPlan float64, bs []float64, shift uint8, n *probeAnswers) {
	t.Helper()
	inst := clusteredRETInstance(t, clusters, seed)
	if shift != 0 {
		by := 2
		if shift%2 == 1 {
			by = -1
		}
		for e := range inst.G.NumEdges() {
			for j := int(shift) % 4; j < int(shift)%4+4; j++ {
				id := netgraph.EdgeID(e)
				if err := inst.SetCapacity(id, j, max(0, inst.Capacity(id, j)+by)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cfg := RETConfig{Solver: solverOpts()}.withDefaults()
	ch, err := newRETChain(inst, "sub-ret", cfg)
	if err != nil {
		t.Fatal(err)
	}
	P := newRETProber(ch, cfg)
	defer (&retComponent{chain: ch, prober: P}).release()
	if _, _, err := P.ceiling(inst, cfg.BMax); err != nil {
		t.Fatal(err)
	}
	if bPlan < cfg.BMax {
		if _, _, _, err := P.solve(inst, bPlan); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range bs {
		last := retExtendedLast(inst, b)
		fits := P.plan != nil && P.fits(last)
		refuted := P.refutes(inst, last)
		if !fits && !refuted {
			continue
		}
		want, _, _, err := solveSubRET(inst, b, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case fits && !want:
			t.Fatalf("seed %d, %d clusters, shift %d: the plan of b=%g fits b=%g, where SUB-RET is infeasible", seed, clusters, shift, bPlan, b)
		case refuted && want:
			t.Fatalf("seed %d, %d clusters, shift %d: the interval bound refutes b=%g, where SUB-RET is feasible", seed, clusters, shift, b)
		case fits:
			n.fits++
		default:
			n.refuted++
		}
	}
}

// TestRETProbeAnswers: over clustered RET instances, every window fit and
// every interval-bound refutation agrees with a fresh solve, and both
// answers occur often enough to mean something.
func TestRETProbeAnswers(t *testing.T) {
	last := int64(140)
	if testing.Short() || raceEnabled {
		last = 70
	}
	var bs []float64
	for i := 0; i <= 16; i++ {
		bs = append(bs, float64(i)*10/16)
	}
	var n probeAnswers
	for seed := int64(40); seed < last; seed++ {
		clusters := 1 + int(seed)%3
		checkRETProbeAnswers(t, seed, clusters, bs[int(seed)%len(bs)], bs, uint8(seed%3)*uint8(seed), &n)
	}
	t.Logf("%+v", n)
	if n.fits < 10 || n.refuted < 10 {
		t.Errorf("%d fits and %d refutations, want 10 of each: the instances no longer exercise the answers", n.fits, n.refuted)
	}
}

// FuzzRETProbeAnswers is TestRETProbeAnswers with the fuzzer choosing the
// instance, the plan's b and the probe's b.
func FuzzRETProbeAnswers(f *testing.F) {
	for seed := int64(40); seed < 46; seed++ {
		f.Add(seed, uint8(seed%3), uint16(seed*4000), uint16(seed*1500), uint8(seed%3)*uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, clusters uint8, plan, probe uint16, shift uint8) {
		const bMax = 10 // RETConfig's default, the horizon clusteredRETInstance builds
		checkRETProbeAnswers(t, seed, 1+int(clusters)%3, bMax*float64(plan)/65535,
			[]float64{bMax * float64(probe) / 65535}, shift, &probeAnswers{})
	})
}

// TestRETBoundPrunesBudgetReentry: on a scaled-down Fig. 4 shape (40 nodes,
// 80 link pairs, 32 jobs at three times their size, seed 3, BMax 3), the
// probe chain's re-entries at the infeasible midpoints b = 0.375, 0.5625 and
// 0.65625 each spent their whole work budget before a cold solve proved
// infeasibility (`reentry=budget` on their lp.solve spans). The interval
// bound answers all three before any LP: stage pruned, cert=bound, 0
// pivots, and b̂ stays 0.673828125.
func TestRETBoundPrunesBudgetReentry(t *testing.T) {
	if raceEnabled {
		t.Skip("one sequential 32-job search; the race detector only makes it slower")
	}
	const seed, w, gbps = 3, 4, 20.0
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: 40, LinkPairs: 80, Wavelengths: w, GbpsPerWave: gbps / w, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(g, workload.Config{
		Jobs: 32, Seed: seed + 1000, GBToDemand: workload.GBToDemandFactor(gbps/w, 10),
		MinWindow: 4, MaxWindow: 8, StartSpread: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Size *= 3
	}
	inst, err := BuildRETInstance(g, jobs, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRET(inst, RETConfig{BMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]bool{0.375: true, 0.5625: true, 0.65625: true}
	for _, p := range res.Probes {
		if !want[p.B] {
			continue
		}
		delete(want, p.B)
		if p.Feasible || p.Stage != StagePruned || p.Cert != CertBound || p.Iters != 0 {
			t.Errorf("b=%g: stage %s, cert %q, feasible %v, %d pivots; want pruned by the bound, infeasible, 0 pivots",
				p.B, p.Stage, p.Cert, p.Feasible, p.Iters)
		}
	}
	if len(want) != 0 {
		t.Errorf("the search no longer probes %v", want)
	}
	if res.BHat != 0.673828125 {
		t.Errorf("b̂ = %v, want 0.673828125", res.BHat)
	}
}
