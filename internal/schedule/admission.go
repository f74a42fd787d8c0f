package schedule

import (
	"sort"

	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

// AdmitPolicy orders jobs for the reject-based admission control of the
// paper's footnote 1: jobs are listed by administrative policy and a
// binary search finds the longest prefix that the network can complete on
// time.
type AdmitPolicy int

// Admission orderings.
const (
	// ByRequestTime admits earlier requests first (FCFS).
	ByRequestTime AdmitPolicy = iota
	// BySizeDescending favors large jobs (the paper's default weighting
	// regards larger e-science transfers as more important).
	BySizeDescending
	// BySizeAscending favors small jobs (finish more jobs).
	BySizeAscending
)

// AdmitResult reports the admission decision.
type AdmitResult struct {
	Admitted []job.Job
	Rejected []job.Job
	ZStar    float64 // stage-1 Z* of the admitted set
	LPSolves int     // stage-1 solves performed by the binary search
}

// AdmitPrefix implements footnote 1: order the jobs by policy, then binary
// search for the longest prefix whose stage-1 maximum concurrent
// throughput Z* is at least 1 (every job in the prefix can be completed by
// its end time). The remaining jobs are rejected.
func AdmitPrefix(g *netgraph.Graph, grid *timeslice.Grid, jobs []job.Job, k int,
	policy AdmitPolicy, opts lp.Options) (*AdmitResult, error) {

	ordered := append([]job.Job(nil), jobs...)
	switch policy {
	case ByRequestTime:
		sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Arrival < ordered[b].Arrival })
	case BySizeDescending:
		sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Size > ordered[b].Size })
	case BySizeAscending:
		sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Size < ordered[b].Size })
	}

	res := &AdmitResult{}
	// z is the Z* of the longest prefix found feasible so far, or of the
	// whole list until one is.
	var z float64
	asked := false
	n, err := LongestFeasiblePrefix(len(ordered), func(n int) (bool, error) {
		if n == 0 {
			return true, nil
		}
		inst, err := NewInstance(g, grid, ordered[:n], k)
		if err != nil {
			return false, err
		}
		s1, err := SolveStage1(inst, opts)
		if err != nil {
			return false, err
		}
		res.LPSolves++
		ok := s1.ZStar >= 1
		if ok || !asked {
			z = s1.ZStar
		}
		asked = true
		return ok, nil
	})
	if err != nil {
		return nil, err
	}
	res.Admitted = ordered[:n]
	if n < len(ordered) {
		res.Rejected = ordered[n:]
	}
	res.ZStar = z
	return res, nil
}

// LongestFeasiblePrefix returns the largest n ≤ total for which feasible(n)
// holds, given a feasibility that holds at 0 and is monotone non-increasing
// in n (adding jobs can only lower Z*): the binary search of footnote 1.
// It asks for total first and then bisects, so it asks for 0 only when
// total is 0.
func LongestFeasiblePrefix(total int, feasible func(n int) (bool, error)) (int, error) {
	ok, err := feasible(total)
	if err != nil {
		return 0, err
	}
	if ok {
		return total, nil
	}
	lo, hi := 0, total
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
