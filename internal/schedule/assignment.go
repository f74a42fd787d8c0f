package schedule

import (
	"fmt"
	"math"

	"wavesched/internal/netgraph"
)

// Assignment holds the decision variables x_i(p, j): the bandwidth (number
// of wavelengths, possibly fractional for LP solutions) assigned to each
// job on each of its allowed paths on each time slice.
type Assignment struct {
	Inst *Instance
	// X[k][p][j] is the assignment for job index k, path index p, slice j.
	X [][][]float64

	// extLast, when non-nil, overrides each job's last usable slice with
	// the RET-extended window I((1+b)·E_i). Nil means the requested
	// windows apply.
	extLast []int
}

// NewAssignment returns an all-zero assignment for inst.
func NewAssignment(inst *Instance) *Assignment {
	x := make([][][]float64, inst.NumJobs())
	n := inst.Grid.Num()
	for k := range x {
		x[k] = make([][]float64, len(inst.JobPaths[k]))
		for p := range x[k] {
			x[k][p] = make([]float64, n)
		}
	}
	return &Assignment{Inst: inst, X: x}
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	b := NewAssignment(a.Inst)
	for k := range a.X {
		for p := range a.X[k] {
			copy(b.X[k][p], a.X[k][p])
		}
	}
	if a.extLast != nil {
		b.extLast = append([]int(nil), a.extLast...)
	}
	return b
}

// SetExtendedWindows marks the assignment as using RET-extended end
// slices: extLast[k] is the last usable slice of job index k.
func (a *Assignment) SetExtendedWindows(extLast []int) {
	a.extLast = append([]int(nil), extLast...)
}

// Truncate floors every entry to the nearest integer, producing the LPD
// solution from an LP solution. A small tolerance snaps values that are
// within 1e-6 of the next integer up, compensating solver round-off.
func (a *Assignment) Truncate() *Assignment {
	b := a.Clone()
	for k := range b.X {
		for p := range b.X[k] {
			row := b.X[k][p]
			for j, v := range row {
				f := math.Floor(v + 1e-6)
				if f < 0 {
					f = 0
				}
				row[j] = f
			}
		}
	}
	return b
}

// Transferred returns the total traffic scheduled for job index k:
// Σ_j Σ_p x·LEN(j).
func (a *Assignment) Transferred(k int) float64 {
	t := 0.0
	grid := a.Inst.Grid
	for p := range a.X[k] {
		for j, v := range a.X[k][p] {
			if v != 0 {
				t += v * grid.Len(j)
			}
		}
	}
	return t
}

// Throughput returns Z_k = Transferred(k) / D_k, the paper's per-job
// throughput (eq. 6).
func (a *Assignment) Throughput(k int) float64 {
	return a.Transferred(k) / a.Inst.Jobs[k].Size
}

// WeightedThroughput returns the stage-2 objective Σ Z_i·D_i / Σ D_i.
func (a *Assignment) WeightedThroughput() float64 {
	num, den := 0.0, 0.0
	for k, j := range a.Inst.Jobs {
		num += a.Transferred(k) // Z_k·D_k = Transferred(k)
		den += j.Size
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// EdgeLoads returns load[e][j] = Σ_i Σ_{p∋e} x_i(p, j) for every directed
// edge and slice.
func (a *Assignment) EdgeLoads() [][]float64 {
	ne := a.Inst.G.NumEdges()
	ns := a.Inst.Grid.Num()
	load := make([][]float64, ne)
	for e := range load {
		load[e] = make([]float64, ns)
	}
	for k := range a.X {
		for p, path := range a.Inst.JobPaths[k] {
			for j, v := range a.X[k][p] {
				if v == 0 {
					continue
				}
				for _, eid := range path.Edges {
					load[eid][j] += v
				}
			}
		}
	}
	return load
}

// VerifyCapacity checks the link-capacity constraint (3) on every edge and
// slice, within tol.
func (a *Assignment) VerifyCapacity(tol float64) error {
	load := a.EdgeLoads()
	for e := range load {
		for j, v := range load[e] {
			if eCap := float64(a.Inst.Capacity(netgraph.EdgeID(e), j)); v > eCap+tol {
				return fmt.Errorf("schedule: edge %d slice %d: load %g exceeds capacity %g", e, j, v, eCap)
			}
		}
	}
	return nil
}

// VerifyWindows checks the start/end-time constraint (4): zero assignment
// outside each job's usable slice range.
func (a *Assignment) VerifyWindows(tol float64) error {
	for k := range a.X {
		first, last := usableRange(a, k)
		for p := range a.X[k] {
			for j, v := range a.X[k][p] {
				if (j < first || j > last) && math.Abs(v) > tol {
					return fmt.Errorf("schedule: job %d path %d slice %d outside window [%d, %d] has assignment %g",
						a.Inst.Jobs[k].ID, p, j, first, last, v)
				}
			}
		}
	}
	return nil
}

// VerifyIntegral checks the integrality constraint (10) within tol.
func (a *Assignment) VerifyIntegral(tol float64) error {
	for k := range a.X {
		for p := range a.X[k] {
			for j, v := range a.X[k][p] {
				if math.Abs(v-math.Round(v)) > tol {
					return fmt.Errorf("schedule: job %d path %d slice %d: %g is not integral",
						a.Inst.Jobs[k].ID, p, j, v)
				}
			}
		}
	}
	return nil
}

// FinishSlice returns the 0-based slice on which job index k's cumulative
// transfer first reaches its demand, and ok=false when the job never
// completes under this assignment. A relative tolerance absorbs LP
// round-off.
func (a *Assignment) FinishSlice(k int) (int, bool) {
	need := a.Inst.Jobs[k].Size * (1 - 1e-9)
	cum := 0.0
	grid := a.Inst.Grid
	for j := 0; j < grid.Num(); j++ {
		for p := range a.X[k] {
			cum += a.X[k][p][j] * grid.Len(j)
		}
		if cum >= need-1e-9 {
			return j, true
		}
	}
	return 0, false
}

// FractionFinished returns the share of jobs whose demand is fully met.
func (a *Assignment) FractionFinished() float64 {
	if len(a.X) == 0 {
		return 1
	}
	n := 0
	for k := range a.X {
		if _, ok := a.FinishSlice(k); ok {
			n++
		}
	}
	return float64(n) / float64(len(a.X))
}

// AverageEndTime returns the mean finishing time over finished jobs,
// measured in time slices (1-based, as in the paper's Figure 4), plus the
// number of finished jobs.
func (a *Assignment) AverageEndTime() (float64, int) {
	sum, n := 0.0, 0
	for k := range a.X {
		if j, ok := a.FinishSlice(k); ok {
			sum += float64(j + 1)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// AllDemandsMet reports whether every job's demand is fully satisfied,
// the completion test in step 3 of the paper's Algorithm 2.
func (a *Assignment) AllDemandsMet() bool {
	for k := range a.X {
		if _, ok := a.FinishSlice(k); !ok {
			return false
		}
	}
	return true
}
