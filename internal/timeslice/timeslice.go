// Package timeslice models the slotted time axis of the scheduler: a
// finite grid of contiguous slices, the slice-index rounding I(t) used in
// the paper's start/end-time constraints, and helpers to build a grid that
// covers a set of job windows (including the (1+b)-extended windows of the
// Relaxing-End-Times algorithm).
package timeslice

import (
	"fmt"
	"math"
)

// Grid is a contiguous sequence of time slices starting at Origin. Slice j
// (0-based) covers [boundary[j], boundary[j+1]).
type Grid struct {
	origin float64
	bounds []float64 // len = numSlices + 1, strictly increasing
}

// Uniform returns a grid of n slices of equal length starting at origin.
func Uniform(origin, sliceLen float64, n int) (*Grid, error) {
	if n < 0 {
		return nil, fmt.Errorf("timeslice: negative slice count %d", n)
	}
	if !(sliceLen > 0) || math.IsInf(sliceLen, 0) {
		return nil, fmt.Errorf("timeslice: slice length must be positive and finite, got %g", sliceLen)
	}
	b := make([]float64, n+1)
	for i := range b {
		b[i] = origin + float64(i)*sliceLen
	}
	return &Grid{origin: origin, bounds: b}, nil
}

// FromBoundaries returns a grid with explicit slice boundaries, allowing
// unequal slice lengths (LEN(j) varies).
func FromBoundaries(bounds []float64) (*Grid, error) {
	if len(bounds) < 1 {
		return nil, fmt.Errorf("timeslice: need at least one boundary")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("timeslice: boundaries must be strictly increasing (index %d)", i)
		}
	}
	b := append([]float64(nil), bounds...)
	return &Grid{origin: bounds[0], bounds: b}, nil
}

// Num returns the number of slices.
func (g *Grid) Num() int { return len(g.bounds) - 1 }

// End returns the grid's final boundary.
func (g *Grid) End() float64 { return g.bounds[len(g.bounds)-1] }

// Len returns LEN(j), the duration of slice j.
func (g *Grid) Len(j int) float64 { return g.bounds[j+1] - g.bounds[j] }

// Start returns the start time of slice j.
func (g *Grid) Start(j int) float64 { return g.bounds[j] }

// Index returns I(t): the index of the slice containing time t. Times
// before the grid map to −1; times at or past the end map to Num().
func (g *Grid) Index(t float64) int {
	if t < g.origin {
		return -1
	}
	if t >= g.End() {
		return g.Num()
	}
	// Binary search for the last boundary ≤ t.
	lo, hi := 0, g.Num()
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.bounds[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Window maps a [start, end] time interval to the inclusive slice range
// [first, last] on which flow may be scheduled, following the paper's
// constraint (4): zero before the start slice and after the end slice.
// A start exactly on a slice boundary admits that slice; the end slice is
// I(end) clamped into the grid. ok is false when the window admits no
// slice.
func (g *Grid) Window(start, end float64) (first, last int, ok bool) {
	if end <= start {
		return 0, -1, false
	}
	first = g.Index(start)
	if first < 0 {
		first = 0
	}
	if first >= g.Num() {
		return 0, -1, false
	}
	// If the start falls strictly inside slice `first`, the paper's
	// constraint x_i(p,j)=0 for j ≤ I(S_i) pushes the first usable slice to
	// the next one — unless the start is exactly on the boundary.
	if start > g.Start(first)+1e-9 {
		first++
	}
	last = g.Index(end)
	if last >= g.Num() {
		last = g.Num() - 1
	}
	// An end strictly inside slice `last` cannot use that partial slice.
	if last >= 0 && last < g.Num() && end < g.bounds[last+1]-1e-9 {
		last--
	}
	if last < first {
		return 0, -1, false
	}
	return first, last, true
}

// CoverUntil returns the smallest number of slices needed so the grid
// (extended with equal-length slices of length def) covers time t. It is
// used to size the horizon to the largest requested end time.
func CoverUntil(origin, def, t float64) int {
	if t <= origin {
		return 0
	}
	return int(math.Ceil((t - origin) / def))
}

// ExtendFactor scales an end time for the RET problem: the extended end
// time of a job with window [s, e] under extension factor (1+b), measured
// from the grid origin. The paper extends E_i to (1+b)·E_i with times
// measured from the scheduling instant (the grid origin).
func (g *Grid) ExtendFactor(end float64, b float64) float64 {
	return g.origin + (end-g.origin)*(1+b)
}
