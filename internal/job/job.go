// Package job defines the bulk-transfer request model of the paper: each
// request is a 6-tuple (A, s, d, D, S, E) — arrival time, source,
// destination, size, requested start time, and requested end time.
package job

import (
	"fmt"

	"wavesched/internal/netgraph"
)

// ID identifies a job within a scheduling instance.
type ID int

// Job is one bulk-transfer request. Sizes are expressed in the scheduler's
// demand unit (the paper normalizes demands by the capacity of one
// wavelength, so Size is "wavelength·time-units"); times are in the same
// unit as the time-slice grid.
type Job struct {
	ID      ID
	Arrival float64         // A_i: when the request was submitted
	Src     netgraph.NodeID // s_i
	Dst     netgraph.NodeID // d_i
	Size    float64         // D_i: demand remaining to schedule
	Start   float64         // S_i: requested start time
	End     float64         // E_i: requested end time
}

// Validate checks the 6-tuple's internal consistency: A ≤ S ≤ E, positive
// size, distinct endpoints.
func (j Job) Validate() error {
	if j.Size <= 0 {
		return fmt.Errorf("job %d: size must be positive, got %g", j.ID, j.Size)
	}
	if j.Src == j.Dst {
		return fmt.Errorf("job %d: source equals destination (%d)", j.ID, j.Src)
	}
	if j.Arrival > j.Start {
		return fmt.Errorf("job %d: arrival %g after requested start %g", j.ID, j.Arrival, j.Start)
	}
	if j.Start >= j.End {
		return fmt.Errorf("job %d: start %g not before end %g", j.ID, j.Start, j.End)
	}
	return nil
}

func (j Job) String() string {
	return fmt.Sprintf("job %d: %d->%d size %.2f window [%.2f, %.2f] arrived %.2f",
		j.ID, j.Src, j.Dst, j.Size, j.Start, j.End, j.Arrival)
}

// ValidateAll validates a slice of jobs and checks ID uniqueness.
func ValidateAll(jobs []Job) error {
	seen := make(map[ID]bool, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("job %d: duplicate id", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// MaxEnd returns the largest requested end time, or 0 for no jobs. The
// scheduler sizes its slice horizon with it.
func MaxEnd(jobs []Job) float64 {
	m := 0.0
	for _, j := range jobs {
		if j.End > m {
			m = j.End
		}
	}
	return m
}
