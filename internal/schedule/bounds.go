package schedule

import (
	"math"
	"slices"

	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
)

// The schedule's LP-free bounds: stage 1's lower bound on each block's Z*,
// read off one feasible routing, and the interval bound that refutes a RET
// probe, a combination of the probe LP's rows. Neither solves an LP, and
// neither can contradict the LP it bounds.

// stage1Bounds returns, per block, a lower bound on its stage-1 optimum:
// the Z of one fixed feasible routing, in which every job sends Z·D_k at a
// constant rate over its window, split evenly over its paths. That routing
// loads each (edge, slice) with Z times a fixed coefficient, so the largest
// Z it carries is the least C_e(j) / coefficient over the cells it loads. The
// blocks share the parent's graph and grid, so one (slice × edge) buffer
// serves them all.
func stage1Bounds(comps []*Component) []float64 {
	nE := comps[0].Inst.G.NumEdges()
	load := make([]float64, comps[0].Inst.Grid.Num()*nE)
	var touched []int
	bounds := make([]float64, len(comps))
	for c, comp := range comps {
		in := comp.Inst
		for k, jb := range in.Jobs {
			first, last := in.Window(k)
			span := 0.0
			for j := first; j <= last; j++ {
				span += in.Grid.Len(j)
			}
			rate := jb.Size / (span * float64(len(in.JobPaths[k])))
			for _, p := range in.JobPaths[k] {
				for j := first; j <= last; j++ {
					for _, e := range p.Edges {
						i := j*nE + int(e)
						if load[i] == 0 {
							touched = append(touched, i)
						}
						load[i] += rate
					}
				}
			}
		}
		b := math.Inf(1)
		for _, i := range touched {
			if z := float64(in.Capacity(netgraph.EdgeID(i%nE), i/nE)) / load[i]; z < b {
				b = z
			}
			load[i] = 0
		}
		touched = touched[:0]
		bounds[c] = b
	}
	return bounds
}

// retBoundMargin is the least normalised excess that refutes a probe. The
// bound is a Farkas combination of SUB-RET's rows: multiplier 1 on each
// chosen demand row (15) and LEN(j) on each capacity row of S at slice j.
// Divided by the combination's largest multiplier, max(1, LEN(j)) — taken
// over the whole grid, which only divides by more — the excess
// lower-bounds the phase-1 residual a solve would find, so it must clear
// the 1e-6 at which phase 1 calls a model infeasible.
const retBoundMargin = 1e-6

// retBound refutes SUB-RET at a probe's windows without an LP, by Horn's
// condition on one resource (the open-shop lower bound of Aslanidis &
// Birmpilis). A cut is a set of jobs every path of which crosses an edge
// set S: the jobs sharing an edge that each of their paths uses, the jobs
// leaving one source (S: the edges their paths leave it by) and the jobs
// entering one destination (S: the edges their paths enter it by). For a
// slice interval [a, c], the jobs of a cut whose window lies inside it must
// fit in S's capacity there:
//
//	Σ D_i ≤ Σ_{j=a..c} LEN(j)·Σ_{e∈S} C_e(j).
//
// The cuts and their capacity prefix sums are built once per search; each
// probe then costs O(J²) per cut, over the jobs' window ends.
type retBound struct {
	first []int     // each job's first slice
	size  []float64 // each job's demand D_i
	norm  float64   // max(1, LEN(j)) over the grid
	cuts  []jobCut
	order []int // a cut's jobs by last slice, rebuilt per cut
}

// jobCut is one cut: its jobs, its edge set S and S's capacity prefix,
// capBefore[j] = Σ_{j'<j} LEN(j')·Σ_{e∈S} C_e(j').
type jobCut struct {
	jobs      []int
	S         []netgraph.EdgeID
	capBefore []float64
}

// newRETBound builds the cuts of the instance's jobs and paths.
func newRETBound(inst *Instance) *retBound {
	nJ := inst.NumJobs()
	rb := &retBound{first: make([]int, nJ), size: make([]float64, nJ), norm: 1}
	for j := 0; j < inst.Grid.Num(); j++ {
		rb.norm = max(rb.norm, inst.Grid.Len(j))
	}
	byEdge := make([]jobCut, inst.G.NumEdges())
	bySrc := make([]jobCut, inst.G.NumNodes())
	byDst := make([]jobCut, inst.G.NumNodes())
	for k, jb := range inst.Jobs {
		rb.first[k], _ = inst.Window(k)
		rb.size[k] = jb.Size
		ps := inst.JobPaths[k]
		if len(ps) == 0 || len(ps[0].Edges) == 0 {
			continue
		}
		for _, e := range ps[0].Edges {
			if onEveryPath(ps, e) {
				byEdge[e].add(k, e)
			}
		}
		for _, p := range ps {
			bySrc[jb.Src].add(k, p.Edges[0])
			byDst[jb.Dst].add(k, p.Edges[len(p.Edges)-1])
		}
	}
	for _, by := range [][]jobCut{byEdge, bySrc, byDst} {
		for _, c := range by {
			if c.jobs != nil {
				rb.addCut(inst, c)
			}
		}
	}
	return rb
}

// add puts job k and edge e in the cut under construction; jobs arrive in
// order.
func (c *jobCut) add(k int, e netgraph.EdgeID) {
	if n := len(c.jobs); n == 0 || c.jobs[n-1] != k {
		c.jobs = append(c.jobs, k)
	}
	if !slices.Contains(c.S, e) {
		c.S = append(c.S, e)
	}
}

// onEveryPath reports whether every path of ps uses edge e.
func onEveryPath(ps []paths.Path, e netgraph.EdgeID) bool {
	for _, p := range ps {
		if !slices.Contains(p.Edges, e) {
			return false
		}
	}
	return true
}

// addCut appends cut c with its capacity prefix, read through
// Instance.Capacity, so overrides count.
func (rb *retBound) addCut(inst *Instance, c jobCut) {
	ns := inst.Grid.Num()
	c.capBefore = make([]float64, ns+1)
	for j := 0; j < ns; j++ {
		sum := 0
		for _, e := range c.S {
			sum += inst.Capacity(e, j)
		}
		c.capBefore[j+1] = c.capBefore[j] + inst.Grid.Len(j)*float64(sum)
	}
	rb.cuts = append(rb.cuts, c)
}

// refutes reports whether some cut proves SUB-RET infeasible at the
// per-job last slices last: for an interval starting at one of the cut's
// first slices, the demand of the cut's jobs inside it, taken in order of
// their last slice, outgrows S's capacity up to that last slice.
func (rb *retBound) refutes(last []int) bool {
	for _, c := range rb.cuts {
		rb.order = append(rb.order[:0], c.jobs...)
		slices.SortFunc(rb.order, func(x, y int) int { return last[x] - last[y] })
		for _, a := range c.jobs {
			lo, demand := rb.first[a], 0.0
			for _, k := range rb.order {
				if rb.first[k] < lo {
					continue
				}
				demand += rb.size[k]
				capacity := c.capBefore[last[k]+1] - c.capBefore[lo]
				if (demand-capacity)/rb.norm > retBoundMargin {
					return true
				}
			}
		}
	}
	return false
}
