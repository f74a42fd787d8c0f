package schedule

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/lp"
)

// stage2Secondary returns the secondary objective (lp.Options.Secondary, in
// the maximizing model's sense) that makes a stage-2 plan canonical: among
// the plans of maximal throughput, the one that minimizes
//
//	Σ (γ(j) + t(i, p, j)) · x_i(p, j),   γ(j) = j + 1,
//
// the paper's Quick-Finish weights (Section II-C) plus a tie-break t in
// [0, ½). γ alone leaves ties — two paths of one job on one slice cost the
// same — and which side of a tie a solve lands on is the pivot path again;
// t breaks them without reordering slices (γ steps by 1) and is large enough
// to register against the solver's tolerance, which a 1e-6 perturbation is
// not. It is keyed on what a variable means, not on where it sits: the same
// LP built in another job or column order gets the same plan.
func stage2Secondary(inst *Instance, m *lp.Model, xv flowVars) []float64 {
	sec := make([]float64, m.NumVars())
	for k := range xv {
		for p := range xv[k] {
			h := tieBreakSeed(inst.Jobs[k].ID, inst.JobPaths[k][p].Key())
			for j, v := range xv[k][p] {
				if v >= 0 {
					sec[v] = -(float64(j+1) + tieBreak(h, j))
				}
			}
		}
	}
	return sec
}

// tieBreakSeed hashes the (job, path) part of a tie-break key.
func tieBreakSeed(id job.ID, pathKey string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	h.Write(b[:])
	io.WriteString(h, pathKey)
	return h.Sum64()
}

// tieBreak returns the tie-break of slice j (its index in the instance's
// grid) under a (job, path) seed: 53 well-mixed bits (the splitmix64
// finalizer — FNV alone barely moves its high bits for nearby inputs) scaled
// into [0, ½).
func tieBreak(seed uint64, j int) float64 {
	z := seed + (uint64(j)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 54)
}

// masterPlan is the fractional stage-2 plan GeneratePaths took from a
// whole-instance master that priced to the end and then ran the
// lexicographic phase: the canonical optimum of the stage-2 LP at
// (zstar, alpha, weights) over the path sets frac is shaped for. Every
// Result read from it shares frac as its LP: read-only.
type masterPlan struct {
	zstar, alpha float64
	weights      []float64 // objective coefficient per job (stage2Weights)
	frac         *Assignment
	iters        int           // pivots of the lexicographic phase
	dur          time.Duration // wall time of the solve that ran it
}

// planFor returns the master plan when it is the answer to the stage-2 LP
// the caller would otherwise build and solve: same Z* (bit for bit — it
// sets the floor), same α, same objective weights, same path sets.
func (in *Instance) planFor(zstar, alpha float64, weight WeightFunc) *masterPlan {
	mp := in.masterPlan
	if mp == nil || mp.zstar != zstar || mp.alpha != alpha || len(mp.frac.X) != in.NumJobs() {
		return nil
	}
	weights, err := stage2Weights(in, weight)
	if err != nil {
		return nil
	}
	for k, w := range weights {
		if w != mp.weights[k] || len(mp.frac.X[k]) != len(in.JobPaths[k]) {
			return nil
		}
	}
	return mp
}
