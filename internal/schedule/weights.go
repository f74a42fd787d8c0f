package schedule

import (
	"wavesched/internal/job"
)

// WeightFunc maps a job to its stage-2 objective weight. The stage-2
// objective becomes Σ w_i·Z_i / Σ w_i. The paper's default weights jobs by
// size (large e-science transfers matter most); it explicitly discusses
// inverse-size weighting (finish more small jobs) and user-assigned
// importance levels as alternatives.
type WeightFunc func(job.Job) float64

// WeightBySize is the paper's default: w_i = D_i.
func WeightBySize(j job.Job) float64 { return j.Size }

// WeightByInverseSize favors small jobs: w_i = 1/D_i.
func WeightByInverseSize(j job.Job) float64 {
	if j.Size <= 0 {
		return 0
	}
	return 1 / j.Size
}

// WeightUniform treats all jobs equally.
func WeightUniform(job.Job) float64 { return 1 }

// WeightByImportance reads user-assigned importance levels from the given
// map (jobs absent from the map get weight 1).
func WeightByImportance(levels map[job.ID]float64) WeightFunc {
	return func(j job.Job) float64 {
		if w, ok := levels[j.ID]; ok {
			return w
		}
		return 1
	}
}
