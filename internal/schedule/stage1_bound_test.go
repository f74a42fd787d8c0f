package schedule

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
)

// skewedInstance is two disjoint ring clusters of three jobs each, each
// cluster one block: the first carries its jobs at full size, the second at
// a hundredth of it, so the second block's Z*_c is far above the first's and
// its stage-1 bound shows it.
func skewedInstance(t testing.TB) *Instance {
	t.Helper()
	g, jobs := clusteredGraphJobs(t, 2, 5, 3, 6)
	for i := 3; i < 6; i++ {
		jobs[i].Size /= 100
	}
	inst, err := NewInstance(g, mustGrid(t, 8), jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Decompose(inst, nil)); n != 2 {
		t.Fatalf("skewed instance has %d blocks, want 2", n)
	}
	return inst
}

// everyBlockZStar solves stage 1 on every block of the instance's
// decomposition and returns each block's Z*_c and their minimum: the Z* a
// stage 1 that skips no block returns.
func everyBlockZStar(t testing.TB, comps []*Component) (zs []float64, zAll float64) {
	t.Helper()
	zAll = math.Inf(1)
	for _, c := range comps {
		s1, err := SolveStage1(c.Inst, solverOpts())
		if err != nil {
			t.Fatal(err)
		}
		zs = append(zs, s1.ZStar)
		zAll = math.Min(zAll, s1.ZStar)
	}
	return zs, zAll
}

// TestStage1SkipsBlockThatCannotSetZ: of a congested block and a nearly
// idle one, stage 1 solves only the congested block — one stage-1 solve, not
// two — and says in the trace why the other has no schedule.stage1 span. The
// Result is bit for bit the one of a stage 1 that solves both blocks: the
// same Z*, and the same LP, LPD and LPDAR plans.
func TestStage1SkipsBlockThatCannotSetZ(t *testing.T) {
	inst := skewedInstance(t)
	comps := Decompose(inst, nil)
	zs, zAll := everyBlockZStar(t, comps)
	if zs[1] < 10*zs[0] {
		t.Fatalf("block Z* = %v: the idle block is not far above the congested one", zs)
	}
	cfg := Config{AlphaGrowth: 0.1, Solver: solverOpts()}
	want, err := MaxThroughputWithZ(inst, &Stage1Result{ZStar: zAll}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	cfg.Solver.Tracer = tr
	solves := readCounter(t, "schedule_stage1_solves_total")
	got, err := MaxThroughput(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := readCounter(t, "schedule_stage1_solves_total") - solves; n != 1 {
		t.Errorf("schedule_stage1_solves_total delta = %d, want 1", n)
	}
	if math.Float64bits(got.ZStar) != math.Float64bits(zAll) || got.Alpha != want.Alpha {
		t.Errorf("Z* = %v at α %v, want %v at α %v", got.ZStar, got.Alpha, zAll, want.Alpha)
	}
	for _, p := range []struct {
		name      string
		got, want *Assignment
	}{{"LP", got.LP, want.LP}, {"LPD", got.LPD, want.LPD}, {"LPDAR", got.LPDAR, want.LPDAR}} {
		if assignmentBytes(p.got) != assignmentBytes(p.want) {
			t.Errorf("%s plan differs from the one over every block's stage 1", p.name)
		}
	}

	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var spans, pruned int
	for _, r := range parseTrace(t, &buf) {
		switch r.Name {
		case "schedule.stage1":
			spans++
		case "schedule.stage1_pruned":
			pruned++
			var a struct {
				Component  string  `json:"component"`
				Bound      float64 `json:"bound"`
				FirstZStar float64 `json:"first_zstar"`
			}
			if err := json.Unmarshal(r.Attrs, &a); err != nil {
				t.Fatal(err)
			}
			if r.Kind != "event" || a.Component != comps[1].Key || a.FirstZStar != zs[0] ||
				a.Bound <= (1+stage1PruneMargin)*zs[0] || a.Bound > zs[1] {
				t.Errorf("pruned event %s %+v, want block %q with a bound in ((1+%g)·%v, %v]",
					r.Kind, a, comps[1].Key, stage1PruneMargin, zs[0], zs[1])
			}
		}
	}
	if spans != 1 || pruned != 1 {
		t.Errorf("trace has %d schedule.stage1 spans and %d schedule.stage1_pruned events, want 1 and 1", spans, pruned)
	}
}

// boundShape sizes one generated instance of the stage-1 bound property:
// disjoint rings with a chord, a few jobs inside each, on top of which
// capacity overrides, a twin ring and one heavily loaded ring.
type boundShape struct {
	seed               int64
	rings, nodes, jobs int
	over               int // bit 0: SetCapacity overrides, bit 1: ring 1 a twin of ring 0, bit 2: ring 0 loaded 8×
}

// clamp brings fuzzed sizes into the range the generator handles quickly.
func (sh boundShape) clamp() boundShape {
	fit := func(v, lo, hi int) int { return lo + v%(hi-lo+1) }
	sh.rings = fit(sh.rings, 1, 4)
	sh.nodes = fit(sh.nodes, 4, 7)
	sh.jobs = fit(sh.jobs, 1, 4)
	sh.over = fit(sh.over, 0, 7)
	return sh
}

// boundSeedShape is the shape the seeded property test and the fuzz corpus
// derive from a seed.
func boundSeedShape(seed int64) boundShape {
	s := int(seed)
	return boundShape{seed: seed, rings: s, nodes: s / 4, jobs: s / 2, over: s / 3}.clamp()
}

const boundSlices = 5

// boundInstance builds the instance of a shape. Each ring draws from its
// own stream, ring 1 from ring 0's when it is a twin: the same links,
// capacities and jobs, so the same Z*_c.
func boundInstance(t testing.TB, sh boundShape) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(sh.seed))
	g := netgraph.New("bound")
	var jobs []job.Job
	for r := 0; r < sh.rings; r++ {
		stream := int64(r)
		if r == 1 && sh.over&2 != 0 {
			stream = 0
		}
		rr := rand.New(rand.NewSource(sh.seed*8 + stream))
		nodes := make([]netgraph.NodeID, sh.nodes)
		for i := range nodes {
			nodes[i] = g.AddNode("", float64(i), float64(r))
		}
		link := func(a, b int) {
			if err := g.AddPair(nodes[a], nodes[b], 1+rr.Intn(3), 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := range nodes {
			link(i, (i+1)%len(nodes))
		}
		if len(nodes) >= 5 {
			link(0, len(nodes)/2)
		}
		load := 1.0
		if r <= 1 && sh.over&4 != 0 && (r == 0 || sh.over&2 != 0) {
			load = 8
		}
		for i := 0; i < sh.jobs; i++ {
			src := rr.Intn(len(nodes))
			dst := (src + 1 + rr.Intn(len(nodes)-1)) % len(nodes)
			first := rr.Intn(boundSlices)
			last := first + rr.Intn(boundSlices-first)
			jobs = append(jobs, job.Job{
				ID: job.ID(100*r + i), Src: nodes[src], Dst: nodes[dst],
				Size:  float64(1+rr.Intn(4)) * load / 4,
				Start: float64(first), End: float64(last + 1),
			})
		}
	}
	inst, err := NewInstance(g, mustGrid(t, boundSlices), jobs, 1+rng.Intn(4))
	if err != nil {
		t.Fatal(err)
	}
	if sh.over&1 != 0 {
		// Overrides on cells paths do load: to nothing, down by one, up by one, doubled.
		for n := 0; n < 6; n++ {
			k := rng.Intn(len(jobs))
			path := inst.JobPaths[k][rng.Intn(len(inst.JobPaths[k]))]
			e := path.Edges[rng.Intn(len(path.Edges))]
			w := g.Edge(e).Wavelengths
			if err := inst.SetCapacity(e, rng.Intn(boundSlices), []int{0, w - 1, w + 1, 2 * w}[n%4]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return inst
}

// boundStats is what the instances of a run exercised.
type boundStats struct {
	instances, oneBlock, multiBlock int
	blocks, skipped, twins          int
	overridden, zeroZ               int
}

// checkStage1Bound is the property the stage-1 skip rule rests on, over the
// instance of a shape:
//
//   - stage1Bounds never exceeds the block's SolveStage1 Z*_c (up to a
//     relative 1e-9: where the even split is optimal, the bound and the
//     solver's Z*_c are one value rounded two ways);
//   - MaxThroughput's Z* is bit for bit the minimum of SolveStage1 over every
//     block, whether the partition is one block or many.
func checkStage1Bound(t testing.TB, sh boundShape, st *boundStats) {
	t.Helper()
	inst := boundInstance(t, sh)
	comps := Decompose(inst, nil)
	zs, zAll := everyBlockZStar(t, comps)
	for i, b := range stage1Bounds(comps) {
		if b > zs[i]*(1+1e-9) {
			t.Errorf("shape %+v: block %q has bound %v above its Z*_c %v", sh, comps[i].Key, b, zs[i])
		}
	}
	solves := readCounter(t, "schedule_stage1_solves_total")
	res, err := MaxThroughput(inst, Config{AlphaGrowth: 0.1, Solver: solverOpts()})
	if err != nil {
		t.Fatalf("shape %+v: %v", sh, err)
	}
	solved := readCounter(t, "schedule_stage1_solves_total") - solves
	if math.Float64bits(res.ZStar) != math.Float64bits(zAll) {
		t.Errorf("shape %+v: Z* = %v, want %v, the minimum over the blocks %v", sh, res.ZStar, zAll, zs)
	}

	st.instances++
	st.blocks += len(comps)
	st.skipped += len(comps) - int(solved)
	if len(comps) == 1 {
		st.oneBlock++
	} else {
		st.multiBlock++
	}
	for i := range zs {
		for j := range zs[:i] {
			if zs[i] == zs[j] {
				st.twins++
				break
			}
		}
	}
	if sh.over&1 != 0 {
		st.overridden++
	}
	if zAll == 0 {
		st.zeroZ++
	}
}

// TestStage1BoundProperty runs checkStage1Bound over seeded instances: one
// to four rings, one block and many, twin blocks of equal Z*_c, capacity
// overrides (to 0 among them) and one ring loaded far above the others.
func TestStage1BoundProperty(t *testing.T) {
	var st boundStats
	for seed := int64(1); seed <= 64; seed++ {
		checkStage1Bound(t, boundSeedShape(seed), &st)
	}
	t.Logf("%+v", st)
	for _, c := range []struct {
		what    string
		n, want int
	}{
		{"instances of one block", st.oneBlock, 5}, {"instances of several blocks", st.multiBlock, 30},
		{"skipped blocks", st.skipped, 40}, {"blocks with a twin's Z*_c", st.twins, 10},
		{"instances with capacity overrides", st.overridden, 20}, {"instances with Z* = 0", st.zeroZ, 2},
	} {
		if c.n < c.want {
			t.Errorf("only %d %s, want %d: the generator no longer exercises the property", c.n, c.what, c.want)
		}
	}
}

// FuzzStage1Bound is the same property with the fuzzer choosing the
// instance.
func FuzzStage1Bound(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		sh := boundSeedShape(seed)
		f.Add(sh.seed, uint8(sh.rings), uint8(sh.nodes), uint8(sh.jobs), uint8(sh.over))
	}
	f.Fuzz(func(t *testing.T, seed int64, rings, nodes, jobs, over uint8) {
		sh := boundShape{seed: seed, rings: int(rings), nodes: int(nodes), jobs: int(jobs), over: int(over)}
		checkStage1Bound(t, sh.clamp(), &boundStats{})
	})
}

// TestComponentPoolFollowsGOMAXPROCS: the default worker pool runs one
// solve per processor the scheduler has, so under GOMAXPROCS 1 no two
// blocks solve at once, however many CPUs the host has.
func TestComponentPoolFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var running, most atomic.Int32
	err := runComponents(8, 0, func(int) error {
		n := running.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(time.Millisecond) // parks the worker: another may start meanwhile
		running.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := most.Load(); m != 1 {
		t.Errorf("%d blocks solved at once under GOMAXPROCS 1, want 1", m)
	}
}
