package schedule

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
)

// Component is one block of an instance decomposition: a maximal set of
// jobs whose candidate path sets share (link, slice) capacity pools,
// directly or transitively. Jobs in different components appear in no
// common capacity constraint, so the stage-1, stage-2, and SUB-RET
// programs are block-diagonal across components and can be solved
// independently.
type Component struct {
	// JobIdx lists the parent-instance job indices of this component, in
	// ascending order.
	JobIdx []int
	// Inst is the sub-instance over exactly these jobs. It shares the
	// parent's graph, grid, and capacity overrides (read-only during
	// solving).
	Inst *Instance
	// Key fingerprints the component by its job IDs, for warm-basis maps
	// that survive across repeated solves of the same job mix.
	Key string
	// Edges lists every edge appearing in the component's candidate
	// paths, ascending — the capacity pools the component can touch.
	// A topology event on any other edge cannot affect this component.
	Edges []netgraph.EdgeID
	// PathsKey fingerprints the candidate path sets of the component's
	// jobs (a hash over each job's path keys, in job order). Warm bases
	// and certificates are only sound for the model they were captured
	// from, and under column generation two epochs with the same job mix
	// can carry different path sets — carried state is therefore keyed by
	// this fingerprint too.
	PathsKey string
}

// ComponentBasis pairs a warm-start basis with the edge set of the
// component it was captured for, so callers (the controller) can
// invalidate warm state per component: a link failure outside
// Edges leaves the entry valid.
type ComponentBasis struct {
	Basis *lp.Basis
	Edges []netgraph.EdgeID
	// PathsKey is the Component.PathsKey the state was captured under.
	// SolveRET uses an entry only for a component with this very
	// fingerprint: a basis or certificate over a different column set
	// (column generation discovered new paths, or the path cache served a
	// different set) is shaped for a different model.
	PathsKey string
	// Feas and Infeas carry the component's last feasibility witness and
	// Farkas ray across epochs, so the next solve's bisection can be
	// answered by certificate checks instead of solves. Certificates
	// self-verify at answer time, so stale entries (job mix, demand, or
	// capacity drift) decline rather than mislead.
	Feas   *lp.Certificate
	Infeas *lp.Certificate
}

// componentKey renders the job-ID fingerprint of a set of parent job
// indices.
func componentKey(inst *Instance, jobIdx []int) string {
	var sb strings.Builder
	for _, k := range jobIdx {
		fmt.Fprintf(&sb, "%d,", inst.Jobs[k].ID)
	}
	return sb.String()
}

// Decompose partitions the instance's jobs into connected components via
// union-find over shared (link, slice) capacity usage: two jobs are
// coupled when some edge lies on a candidate path of both and their
// usable slice windows overlap on it. extLast, when non-nil, overrides
// each job's last usable slice (the RET extension at the search ceiling,
// so a component is stable across every b probed below it). Components
// are ordered by their smallest job index; JobIdx within each is
// ascending, so the decomposition is deterministic.
func Decompose(inst *Instance, extLast []int) []*Component {
	n := inst.NumJobs()
	if n == 0 {
		return nil
	}
	ns := inst.Grid.Num()

	// Job windows with the optional RET extension applied.
	first := make([]int, n)
	last := make([]int, n)
	for k := 0; k < n; k++ {
		f, l := inst.Window(k)
		if extLast != nil {
			l = extLast[k]
			if l >= ns {
				l = ns - 1
			}
		}
		first[k], last[k] = f, l
	}

	parent := make([]int, n)
	for k := range parent {
		parent[k] = k
	}
	var find func(int) int
	find = func(k int) int {
		for parent[k] != k {
			parent[k] = parent[parent[k]] // path halving
			k = parent[k]
		}
		return k
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra // root at the smallest index
	}

	// Jobs using each edge, with their windows. Iterating jobs in order
	// keeps each edge's list deterministic.
	type span struct{ k, first, last int }
	perEdge := make(map[netgraph.EdgeID][]span)
	seen := make(map[netgraph.EdgeID]bool)
	for k := 0; k < n; k++ {
		for e := range seen {
			delete(seen, e)
		}
		for _, p := range inst.JobPaths[k] {
			for _, e := range p.Edges {
				if !seen[e] {
					seen[e] = true
					perEdge[e] = append(perEdge[e], span{k, first[k], last[k]})
				}
			}
		}
	}

	// Per edge, union jobs whose windows overlap: sort by window start
	// and sweep with the running maximum end, so overlapping runs merge
	// without materializing all O(jobs²) pairs.
	for _, spans := range perEdge {
		if len(spans) < 2 {
			continue
		}
		sort.Slice(spans, func(a, b int) bool {
			if spans[a].first != spans[b].first {
				return spans[a].first < spans[b].first
			}
			return spans[a].k < spans[b].k
		})
		cur := spans[0].k
		maxLast := spans[0].last
		for _, s := range spans[1:] {
			if s.first <= maxLast {
				union(cur, s.k)
			} else {
				cur = s.k
			}
			if s.last > maxLast {
				maxLast = s.last
				cur = s.k
			}
		}
	}

	// Group by root. Roots are the smallest member index (union keeps the
	// lower root), so iterating jobs in order yields components ordered by
	// smallest job index with ascending members.
	groups := make(map[int][]int)
	var roots []int
	for k := 0; k < n; k++ {
		r := find(k)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], k)
	}

	comps := make([]*Component, 0, len(roots))
	for _, r := range roots {
		comps = append(comps, buildComponent(inst, groups[r]))
	}
	return comps
}

// partition returns the blocks a solve runs over, never fewer than one:
// Decompose's components, or — when that is a single block, or monolithic
// asks for one model over all jobs — one component that is the instance
// itself. Its Inst is the parent pointer, not a copy: what GeneratePaths left
// on the instance (the Z* proof, the master's plan) and its closed-model
// layout are found where they were left, and the solve over it is the solve
// of the instance. Key, edge set and path fingerprint are a component's like
// any other, so carried state and telemetry need no second vocabulary.
func partition(inst *Instance, extLast []int, monolithic bool) []*Component {
	var comps []*Component
	if !monolithic {
		comps = Decompose(inst, extLast)
	}
	if len(comps) == 0 {
		all := make([]int, inst.NumJobs())
		for k := range all {
			all[k] = k
		}
		comps = []*Component{buildComponent(inst, all)}
	}
	if len(comps) == 1 {
		comps[0].Inst = inst
	}
	observeComponents(comps)
	return comps
}

// endDecompose closes the schedule.decompose span that maxThroughput and
// SolveRET open around their partition.
func endDecompose(sp telemetry.Span, inst *Instance, comps []*Component) {
	if sp.ID() != 0 {
		sp.End(telemetry.KV("jobs", inst.NumJobs()), telemetry.KV("components", len(comps)))
	}
}

// buildComponent assembles the sub-instance over the given parent job
// indices (ascending). The graph, grid, and capacity-override map are
// shared with the parent, which is safe while solving only reads them.
func buildComponent(inst *Instance, jobIdx []int) *Component {
	sub := &Instance{
		G:           inst.G,
		Grid:        inst.Grid,
		capOverride: inst.capOverride,
	}
	edgeSet := make(map[netgraph.EdgeID]bool)
	h := fnv.New64a()
	for _, k := range jobIdx {
		sub.Jobs = append(sub.Jobs, inst.Jobs[k])
		sub.JobPaths = append(sub.JobPaths, inst.JobPaths[k])
		sub.windows = append(sub.windows, inst.windows[k])
		for _, p := range inst.JobPaths[k] {
			io.WriteString(h, p.Key())
			h.Write([]byte{';'})
			for _, e := range p.Edges {
				edgeSet[e] = true
			}
		}
		h.Write([]byte{'|'})
	}
	edges := make([]netgraph.EdgeID, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a] < edges[b] })
	return &Component{
		JobIdx:   jobIdx,
		Inst:     sub,
		Key:      componentKey(inst, jobIdx),
		Edges:    edges,
		PathsKey: strconv.FormatUint(h.Sum64(), 16),
	}
}

// subSlice maps a parent-indexed per-job slice (e.g. a RET extLast) onto
// the component's job ordering.
func (c *Component) subSlice(parent []int) []int {
	if parent == nil {
		return nil
	}
	out := make([]int, len(c.JobIdx))
	for i, k := range c.JobIdx {
		out[i] = parent[k]
	}
	return out
}

// mergeAssignments copies per-component fractional solutions back into a
// parent-shaped assignment. Components partition the jobs, so the copy
// order is immaterial; iterating components in their deterministic order
// keeps the merge reproducible regardless of which goroutine solved what.
func mergeAssignments(inst *Instance, comps []*Component, parts []*Assignment) *Assignment {
	if len(comps) == 1 && comps[0].Inst == inst {
		return parts[0] // the partition is the instance: already parent-shaped
	}
	merged := NewAssignment(inst)
	for ci, comp := range comps {
		part := parts[ci]
		for local, k := range comp.JobIdx {
			for p := range part.X[local] {
				copy(merged.X[k][p], part.X[local][p])
			}
		}
	}
	return merged
}

// runComponents fans fn out over component indices on a bounded worker
// pool — min(parallelism, n) goroutines, where parallelism ≤ 0 selects
// NumCPU — and returns the earliest component's error, keeping the
// outcome independent of goroutine scheduling (the runSeeds pattern from
// internal/experiments).
func runComponents(n, parallelism int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observeComponents records the component count and size histogram of one
// partition. Every solve counts, whatever made its partition: a fully coupled
// instance and a forced-monolithic solve are each one component of all jobs.
func observeComponents(comps []*Component) {
	telComponents.Add(int64(len(comps)))
	for _, c := range comps {
		telComponentSize.Observe(float64(len(c.JobIdx)))
	}
}
