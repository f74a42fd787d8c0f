package schedule

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/telemetry"
)

// Column generation for the path variables x_i(p, j).
//
// The stage-1/stage-2/SUB-RET programs have one variable per (job, path,
// slice) triple, so eager K-shortest enumeration makes the LP size — and
// the simplex pricing cost per pivot — grow with K whether or not the
// extra paths ever carry flow. GeneratePaths inverts that: instances
// built with InstanceOptions.ColumnGen start from a small seed set
// (greedy edge-disjoint shortest paths), and the path sets grow on
// demand by LP pricing against restricted masters of the three programs.
//
// For a restricted master at its optimum, a path p of job i is worth
// adding exactly when some slice-j column over p has negative reduced
// cost. In minimization form the reduced cost of a fresh x_i(p, j) is
//
//	rc = c − σ_i·LEN(j) − Σ_{e∈p} y_{e,j}
//
// with σ_i the dual of job i's coupling/demand row, y_{e,j} ≤ 0 the duals
// of the capacity rows, and c = 0 (stages 1–2) or γ(j) (SUB-RET). Writing
// w_{e,j} = max(0, −y_{e,j}) ≥ 0, rc < 0 becomes
//
//	Σ_{e∈p} w_{e,j}  <  σ_i·LEN(j) − c,
//
// a shortest-path problem in the duals: Dijkstra under edge weights w
// (paths.PricedShortest) finds the minimizer per (src, dst, slice), and
// when even the minimizer misses the threshold no path column anywhere
// prices in — the restricted optimum is optimal over the full
// exponential path space, not just the enumerated K. The stage-1 and
// stage-2 masters are built closed, without their dominated capacity rows,
// and kept closed as they grow (capcells.go): a cell without a row prices
// at y = 0, which the reduced master's feasible set — the full master's —
// makes exact. Discovered columns are appended to the master
// (lp.Model.AddColumn) together with the capacity rows they need: a row for
// a cell they are first to load, or back for a dominated one they load
// without its dominator. Those are trailing LE rows, so the solved basis
// re-enters via lp.Basis.Extend and each round costs a warm re-solve
// instead of a cold one.
type ColGenConfig struct {
	// Solver configures the restricted-master LP solves.
	Solver lp.Options
	// MaxRounds bounds pricing rounds per master; non-positive selects 50.
	MaxRounds int
	// Alpha is the stage-2 fairness slack to discover under; zero selects
	// the stage-2 default 0.1.
	Alpha float64
	// Weight is the stage-2 objective weight; nil selects WeightBySize.
	Weight WeightFunc
	// SkipStage2 prices only the stage-1 master (and SUB-RET when RET is
	// set).
	SkipStage2 bool
	// RET, when non-nil, additionally prices a SUB-RET master at the
	// BMax-extended windows, so the RET search's models also see the
	// columns they need.
	RET *RETConfig
	// Parallelism bounds the per-component worker pool (≤0: GOMAXPROCS).
	Parallelism int
}

// ColGenStats reports what one GeneratePaths run did.
type ColGenStats struct {
	SeedPaths  int // paths present before discovery (seeds plus what the cache carried)
	AddedPaths int // paths appended by pricing
	Rounds     int // pricing rounds that appended columns
	Solves     int // restricted-master LP solves
	Components int // independent blocks discovery ran over
	Evicted    int // carried paths the publish dropped from the PathCache

	// Support[k][p] reports that path p of job k carried flow above 1e-9 in
	// the final optimum of some master. It is what the PathCache carries
	// beyond the seeds.
	Support [][]bool

	// ZStar is the stage-1 optimum of the grown instance. When Proven it is
	// optimal over the full (exponential) path space, and the instance
	// carries it so the solves that follow skip the cold stage-1 solve
	// (Stage1ZStar).
	ZStar float64
	// Proven reports that every stage-1 master behind ZStar ended Optimal
	// on a pricing round that appended nothing. False when one stopped on
	// MaxRounds: ZStar is then only the restricted master's optimum.
	Proven bool

	// LexPivots is the number of simplex pivots the lexicographic phase
	// that ended the whole-instance stage-2 master took (0 when there was
	// none, and unless the instance was built with ColumnGen). MasterPlan
	// reports that the instance now carries that master's stage-2 plan, so
	// a MaxThroughput over it solves no stage-2 LP.
	LexPivots  int
	MasterPlan bool
}

// supportTol is the flow above which a path counts as used by a master's
// optimum. Positive on purpose: 1e-15 of simplex noise is not support.
const supportTol = 1e-9

// colgenTol is the reduced-cost threshold below which a column does not
// price in.
const colgenTol = 1e-7

// GeneratePaths grows the instance's path sets in place by column
// generation: per connected component it solves restricted stage-1,
// stage-2, and (optionally) SUB-RET masters, pricing new paths via
// Dijkstra on the dual weights until no column prices in. Discovery
// always runs per component with its own deterministic warm chain —
// independent of how the instance will later be solved — so the solves
// that follow (MaxThroughput, SolveRET, warm or cold, monolithic or
// decomposed) all see the same grown path sets. When discovered paths
// couple previously independent components, one joint verification round
// over the full instance closes the gap.
//
// The instance keeps the whole grown pool. What a PathCache carries to the
// next build is smaller: per pair, the seeds plus the paths some master's
// final optimum routed flow over (publishColGenPaths). A master priced to
// the end is optimal over the full path space whatever pool it started
// from, so dropping unused columns changes how much the next run re-prices,
// never an optimum.
func GeneratePaths(inst *Instance, cfg ColGenConfig) (*ColGenStats, error) {
	inst.forgetDerived()
	if inst.NumJobs() == 0 {
		telColGenCarried.Set(0)
		return &ColGenStats{}, nil
	}
	sp := cfg.Solver.Tracer.Start("schedule.colgen")
	cfg.Solver.Tracer = sp.Tracer()
	stats, err := generatePaths(inst, cfg)
	endSpan(sp, err, func() []telemetry.Attr {
		plan := PlanCold
		if stats.MasterPlan {
			plan = PlanMaster
		}
		return []telemetry.Attr{
			telemetry.KV("jobs", inst.NumJobs()),
			telemetry.KV("carried", stats.SeedPaths),
			telemetry.KV("added", stats.AddedPaths),
			telemetry.KV("evicted", stats.Evicted),
			telemetry.KV("rounds", stats.Rounds),
			telemetry.KV("solves", stats.Solves),
			telemetry.KV("zstar", stats.ZStar),
			telemetry.KV("proven", stats.Proven),
			telemetry.KV("plan", plan),
			telemetry.KV("lex_pivots", stats.LexPivots),
		}
	})
	return stats, err
}

func generatePaths(inst *Instance, cfg ColGenConfig) (*ColGenStats, error) {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 50
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = defaultAlpha
	}
	stats := &ColGenStats{}
	d := &cgDiscovery{
		cfg: cfg, avoid: inst.colgenAvoid(),
		carried: make([]int, inst.NumJobs()),
		used:    make([][]bool, inst.NumJobs()),
	}
	// Exact-length clone of every path slice before any append: seed
	// slices are shared across jobs with the same endpoints and with
	// PathCache entries, and an in-place append through a shared header
	// would corrupt its other owners.
	for k := range inst.JobPaths {
		d.carried[k] = len(inst.JobPaths[k])
		stats.SeedPaths += d.carried[k]
		cl := make([]paths.Path, len(inst.JobPaths[k]))
		copy(cl, inst.JobPaths[k])
		inst.JobPaths[k] = cl
	}

	var retCfg RETConfig
	var extLast []int
	if cfg.RET != nil {
		retCfg = cfg.RET.withDefaults()
		retCfg.Solver.Tracer = cfg.Solver.Tracer // under this run's span
		extLast = retExtendedLast(inst, retCfg.BMax)
	}
	comps := Decompose(inst, extLast)
	stats.Components = len(comps)

	// Monolithic discovery when decomposition cannot pay for itself: with
	// a dominant component (more than half the jobs), the per-component
	// chains plus the joint verification round cost up to two full cold
	// solves where one suffices. The heuristic is a pure function of the
	// seed decomposition, so reruns stay deterministic.
	mono := len(comps) <= 1
	for _, c := range comps {
		if 2*len(c.JobIdx) > inst.NumJobs() {
			mono = true
		}
	}
	if mono {
		stats.Components = 1
		zstar, proven, err := d.discoverAll(inst, nil, extLast, retCfg)
		if err != nil {
			return stats, err
		}
		return d.finish(inst, stats, zstar, proven), nil
	}

	// Stage-1 discovery per component; the global Z* is the minimum over
	// blocks (they share no constraint at the seed decomposition).
	zs := make([]float64, len(comps))
	priced := make([]bool, len(comps))
	if err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
		var err error
		zs[i], priced[i], err = d.discoverStage1(comps[i].Inst, comps[i].JobIdx)
		return err
	}); err != nil {
		return stats, err
	}
	zstar, proven := zs[0], true
	for i, z := range zs {
		if z < zstar {
			zstar = z
		}
		proven = proven && priced[i]
	}
	if err := runComponents(len(comps), cfg.Parallelism, func(i int) error {
		return d.discoverRest(comps[i].Inst, comps[i].JobIdx, zstar, comps[i].subSlice(extLast), retCfg)
	}); err != nil {
		return stats, err
	}
	// Components own clones of the parent's path slices; write the grown
	// sets back.
	for _, c := range comps {
		for i, k := range c.JobIdx {
			inst.JobPaths[k] = c.Inst.JobPaths[i]
		}
	}
	// Joint verification: a discovered path can touch edges outside its
	// component, coupling blocks that were independent over the seeds. One
	// full-instance round re-prices against the true shared capacities —
	// but only when the grown path sets actually re-partition the
	// instance; re-decomposing is orders of magnitude cheaper than the
	// extra LP round it usually avoids.
	if len(comps) > 1 && !samePartition(comps, Decompose(inst, extLast), inst.NumJobs()) {
		var err error
		if zstar, proven, err = d.discoverAll(inst, nil, extLast, retCfg); err != nil {
			return stats, err
		}
	}
	return d.finish(inst, stats, zstar, proven), nil
}

// discoverAll prices every configured master over one block — the whole
// instance (jobIdx nil) or a component with the parent index of each of
// its jobs — and returns the block's Z* and whether pricing proved it.
func (d *cgDiscovery) discoverAll(inst *Instance, jobIdx, extLast []int, retCfg RETConfig) (float64, bool, error) {
	zstar, proven, err := d.discoverStage1(inst, jobIdx)
	if err != nil {
		return 0, false, err
	}
	return zstar, proven, d.discoverRest(inst, jobIdx, zstar, extLast, retCfg)
}

// discoverRest prices the masters that follow stage 1: stage 2 at the
// given Z* unless skipped, SUB-RET when configured.
func (d *cgDiscovery) discoverRest(inst *Instance, jobIdx []int, zstar float64, extLast []int, retCfg RETConfig) error {
	if !d.cfg.SkipStage2 {
		if err := d.discoverStage2(inst, jobIdx, zstar); err != nil {
			return err
		}
	}
	if d.cfg.RET != nil {
		return d.discoverSubRET(inst, jobIdx, extLast, retCfg)
	}
	return nil
}

// finish publishes what the next build starts from, leaves a proven Z* and
// the whole-instance master's stage-2 plan on the instance, fills the run
// counters, and flushes the discovery telemetry.
func (d *cgDiscovery) finish(inst *Instance, stats *ColGenStats, zstar float64, proven bool) *ColGenStats {
	// Evict only on the word of a run that priced every master the epoch
	// solve prices, each to the end: an admission probe (SkipStage2) knows
	// nothing of stage 2's support and a master cut short knows too little
	// of its own, so those add their marks to what the build started from.
	evict := !d.cfg.SkipStage2 && !d.cutShort.Load()
	for k := range d.used { // paths appended after the job's last mark
		d.used[k] = append(d.used[k], make([]bool, len(inst.JobPaths[k])-len(d.used[k]))...)
	}
	stats.Support = d.used
	stats.Evicted = inst.publishColGenPaths(d.carried, d.used, evict)
	stats.ZStar, stats.Proven = zstar, proven
	if proven {
		inst.provenZ = &zstar
	}
	// The plan is the canonical optimum over the path sets its master had;
	// a master priced afterwards (SUB-RET) may have grown them.
	inst.masterPlan = d.plan
	inst.masterPlan = inst.planFor(zstar, d.cfg.Alpha, d.cfg.Weight)
	stats.MasterPlan = inst.masterPlan != nil
	stats.Rounds = int(d.rounds)
	stats.AddedPaths = int(d.added)
	stats.Solves = int(d.solves)
	stats.LexPivots = int(d.lexPivots)
	telColGenRounds.Add(d.rounds)
	telColGenPaths.Add(d.added)
	telColGenSolves.Add(d.solves)
	telColGenCarried.Set(float64(stats.SeedPaths))
	telColGenEvicted.Add(int64(stats.Evicted))
	return stats
}

// samePartition reports whether two decompositions induce the same job
// partition (labels compared in first-seen normal form, so component
// ordering is irrelevant).
func samePartition(a, b []*Component, numJobs int) bool {
	if len(a) != len(b) {
		return false
	}
	label := func(comps []*Component) []int {
		lab := make([]int, numJobs)
		for i, c := range comps {
			for _, k := range c.JobIdx {
				lab[k] = i
			}
		}
		// Normalize: rename components by order of first appearance.
		ren := make(map[int]int, len(comps))
		for k, l := range lab {
			n, ok := ren[l]
			if !ok {
				n = len(ren)
				ren[l] = n
			}
			lab[k] = n
		}
		return lab
	}
	la, lb := label(a), label(b)
	for k := range la {
		if la[k] != lb[k] {
			return false
		}
	}
	return true
}

// colgenAvoid returns the edges the pricing oracle must route around:
// the avoid set captured at build time, or (for instances built without
// ColumnGen) the zero-wavelength edges.
func (in *Instance) colgenAvoid() map[netgraph.EdgeID]bool {
	if in.colgen != nil {
		return in.colgen.dead.edges
	}
	return NewDeadLinks(in.G).edges
}

// publishColGenPaths overwrites each (src, dst) pair's colgen entry in the
// build-time PathCache with what the next build should start from: jobs in
// instance order, each job's paths in list order, de-duplicated — the
// paths the job keeps unconditionally plus those used[k][p] marks. With evict
// a job keeps its first seedPaths paths (the edge-disjoint seeds, which stay
// first because they are always kept); without, all carried[k] paths it
// was built with, so the entry only grows. Returns how many paths of the
// entries the build started from are gone from the new ones.
func (in *Instance) publishColGenPaths(carried []int, used [][]bool, evict bool) (evicted int) {
	cg := in.colgen
	if cg == nil || cg.cache == nil {
		return 0
	}
	type pair struct{ src, dst netgraph.NodeID }
	entry := make(map[pair][]paths.Path)
	before := make(map[pair][]paths.Path) // the entry the build started from
	seen := make(map[pair]map[string]bool)
	for k, jb := range in.Jobs {
		key := pair{jb.Src, jb.Dst}
		if seen[key] == nil {
			seen[key] = make(map[string]bool)
			before[key] = in.JobPaths[k][:carried[k]]
		}
		keep := carried[k]
		if evict {
			keep = seedPaths
		}
		for p, path := range in.JobPaths[k] {
			if p >= keep && !used[k][p] {
				continue
			}
			if pk := path.Key(); !seen[key][pk] {
				seen[key][pk] = true
				entry[key] = append(entry[key], path)
			}
		}
	}
	for key, ps := range entry {
		for _, p := range before[key] {
			if !seen[key][p.Key()] {
				evicted++
			}
		}
		cg.cache.put(pathCacheKey{
			src: key.src, dst: key.dst,
			k: seedPaths, colgen: true,
			avoid: cg.dead.key,
		}, ps)
	}
	return evicted
}

// cgDiscovery is the shared state of one GeneratePaths run. The counters
// are updated atomically — per-component discovery runs on a worker pool.
type cgDiscovery struct {
	cfg       ColGenConfig
	avoid     map[netgraph.EdgeID]bool
	rounds    int64
	added     int64
	solves    int64
	lexPivots int64

	// plan is the stage-2 plan of the last whole-instance master, nil when
	// that master did not end with the lexicographic phase. Whole-instance
	// masters run one at a time.
	plan *masterPlan

	// carried[k] is the number of paths job k (parent index) was built
	// with; used[k][p] marks path p of job k as carrying flow in the final
	// optimum of some master. Workers write disjoint jobs' entries.
	carried []int
	used    [][]bool
	// cutShort is set when a master ended without a priced optimum: not
	// Optimal, or out of rounds while columns still priced in.
	cutShort atomic.Bool
}

// cgMaster is one restricted master being priced: its model, the
// (job, path, slice) variable map, and the capacity-row layout it grows.
// Row k of the model is job k's coupling/demand row in all three programs,
// and the capacity rows follow, cells.kept[i] at row NumJobs + i. every
// marks a master that keeps every capacity row, as the SUB-RET master does;
// the SUB-RET master's x columns carry the Quick-Finish objective γ(j).
// jobIdx maps the master's job indices to the parent instance's
// (nil: they are the parent's). lex asks run to end a master that priced to
// the end with the lexicographic stage-2 phase; when that ran to its optimum
// lexSol is the solution and lexTime what the solve took.
type cgMaster struct {
	stage   string // "stage1", "stage2" or "subret"
	inst    *Instance
	jobIdx  []int
	m       *lp.Model
	xv      flowVars
	cells   *capCells
	every   bool
	solver  lp.Options
	lex     bool
	lexSol  *lp.Solution
	lexTime time.Duration

	// onEdge[e] lists the master's paths that cross edge e (pathsOver), and
	// cross is scratch of relink's; both are built when a cell without a row
	// first needs them. linked counts the cells appended paths were first to
	// load that were left without a row.
	onEdge [][]pathRef
	cross  []int32
	linked int
}

// discoverStage1 prices the stage-1 master and returns Z* and whether the
// last pricing round proved it optimal over the full path space.
func (d *cgDiscovery) discoverStage1(inst *Instance, jobIdx []int) (float64, bool, error) {
	cells := newCapCells(inst)
	m, z, xv, _, err := buildStage1Model("colgen-stage1", inst, cells)
	if err != nil {
		return 0, false, err
	}
	sol, priced, err := d.run(&cgMaster{
		stage: "stage1", inst: inst, jobIdx: jobIdx, m: m, xv: xv, cells: cells, solver: d.cfg.Solver,
	})
	if err != nil {
		return 0, false, err
	}
	if sol.Status != lp.Optimal {
		return 0, false, fmt.Errorf("schedule: colgen stage-1 master: solver returned %v", sol.Status)
	}
	return sol.Value(z), priced, nil
}

// discoverStage2 prices the stage-2 master at the given Z* and the
// configured fairness slack. A non-optimal master (the floor can be
// infeasible for a component under a globally derived Z* only through
// numerical trouble) stops discovery for it without failing the run —
// the real solve's α ladder owns that outcome. The whole-instance master,
// once priced to the end, finishes with the lexicographic phase and its plan
// is kept for the solve that follows — unless that solve is SolveRET, which
// reads no stage-2 plan.
func (d *cgDiscovery) discoverStage2(inst *Instance, jobIdx []int, zstar float64) error {
	cells := newCapCells(inst)
	m, _, xv, _, err := buildStage2Model(inst, zstar, d.cfg.Alpha, d.cfg.Weight, cells)
	if err != nil {
		return err
	}
	ms := &cgMaster{
		stage: "stage2", inst: inst, jobIdx: jobIdx, m: m, xv: xv, cells: cells, solver: d.cfg.Solver,
		lex: jobIdx == nil && d.cfg.RET == nil,
	}
	if _, _, err := d.run(ms); err != nil || jobIdx != nil {
		return err
	}
	d.plan = nil
	if ms.lexSol != nil {
		weights, err := stage2Weights(inst, d.cfg.Weight)
		if err != nil {
			return err
		}
		d.plan = &masterPlan{
			zstar: zstar, alpha: d.cfg.Alpha, weights: weights,
			frac:  extractAssignment(inst, ms.xv, ms.lexSol),
			iters: ms.lexSol.LexIters, dur: ms.lexTime,
		}
	}
	return nil
}

// discoverSubRET prices the SUB-RET master at the BMax-extended windows.
// An infeasible master (the network cannot finish every job even at the
// ceiling) stops discovery without failing the run — SolveRET reports
// that case itself. The master solves under the RET configuration's own
// solver options, as the search that follows will, and keeps every capacity
// row, as the search's models do: which paths it prices in depends on the
// vertices its solves end on (see lp.Options.ArtificialCrash).
func (d *cgDiscovery) discoverSubRET(inst *Instance, jobIdx, extLast []int, cfg RETConfig) error {
	m, xv, cells, err := buildSubRETModel("colgen-subret", inst, extLast)
	if err != nil {
		return err
	}
	_, _, err = d.run(&cgMaster{
		stage: "subret", inst: inst, jobIdx: jobIdx, m: m, xv: xv,
		cells: cells, every: true, solver: cfg.Solver,
	})
	return err
}

// run drives one master through solve/price rounds until no column
// prices in (or MaxRounds). Each re-solve warm-starts from the previous
// optimum extended over the appended columns and rows, so the simplex
// only has to price the new columns in. A non-Optimal status ends the
// loop — there is no dual solution to price against. priced reports the
// first kind of end: the returned optimum is optimal over every path, not
// just the master's. An Optimal end of either kind marks its support; with
// ms.lex a priced one then moves on to the canonical optimum (ms.lexSol).
// One schedule.colgen_master span encloses the master's solves and says how
// many capacity rows the master ended with, how many loaded cells without
// one, and how many rows its growth gave back.
func (d *cgDiscovery) run(ms *cgMaster) (sol *lp.Solution, priced bool, err error) {
	sp := ms.solver.Tracer.Start("schedule.colgen_master")
	opts := ms.solver
	opts.Tracer = sp.Tracer()
	opts.CaptureBasis = true
	opts.WarmStart = nil
	sol, err = ms.m.SolveWith(opts)
	rounds, solves, lexPivots := 0, 1, 0
	for r := 0; r < d.cfg.MaxRounds && err == nil && sol.Status == lp.Optimal; r++ {
		nv, nr, perr := d.price(ms, sol)
		if perr != nil {
			err = perr
			break
		}
		if nv == 0 {
			priced = true
			break
		}
		rounds++
		wopts := opts
		if sol.Basis != nil {
			wopts.WarmStart = sol.Basis.Extend(nv, nr)
		}
		sol, err = ms.m.SolveWith(wopts)
		solves++
	}
	if !priced {
		d.cutShort.Store(true)
	}
	if err == nil && sol.Status == lp.Optimal {
		// The vertex pricing ended on, not the canonical one below: carrying
		// the lexicographic plan's support instead, or both, measured slower
		// (DESIGN §16).
		d.markSupport(ms, sol)
	}
	if priced && ms.lex {
		// One more warm solve from the optimum in hand: no primary pivot is
		// left to make, so all it runs is the lexicographic phase.
		start := time.Now()
		wopts := opts
		wopts.WarmStart = sol.Basis
		wopts.Secondary = stage2Secondary(ms.inst, ms.m, ms.xv)
		lexSol, lerr := ms.m.SolveWith(wopts)
		solves++
		if err = lerr; err == nil && lexSol.Status == lp.Optimal {
			ms.lexSol, ms.lexTime, lexPivots = lexSol, time.Since(start), lexSol.LexIters
		}
	}
	atomic.AddInt64(&d.rounds, int64(rounds))
	atomic.AddInt64(&d.solves, int64(solves))
	atomic.AddInt64(&d.lexPivots, int64(lexPivots))
	// The build counted the cells it left without a row; these are the rest.
	telCapRowsDropped.Add(int64(ms.linked))
	if sp.ID() != 0 { // tracing
		attrs := []telemetry.Attr{
			telemetry.KV("stage", ms.stage),
			telemetry.KV("jobs", ms.inst.NumJobs()),
			telemetry.KV("rounds", rounds),
			telemetry.KV("solves", solves),
			telemetry.KV("priced", priced),
			telemetry.KV("lex_pivots", lexPivots),
			telemetry.KV("cap_rows", len(ms.cells.kept)),
			telemetry.KV("cap_rows_dropped", ms.cells.dropped),
			telemetry.KV("cap_rows_restored", ms.cells.restored),
		}
		if err != nil {
			attrs = append(attrs, telemetry.KV("error", err.Error()))
		}
		sp.End(attrs...)
	}
	return sol, priced, err
}

// markSupport records which of the master's paths carry flow on some
// slice of its optimum.
func (d *cgDiscovery) markSupport(ms *cgMaster, sol *lp.Solution) {
	for k, rows := range ms.xv {
		pk := k
		if ms.jobIdx != nil {
			pk = ms.jobIdx[k]
		}
		used := d.used[pk]
		for len(used) < len(rows) {
			used = append(used, false)
		}
		for p, row := range rows {
			for _, v := range row {
				if v >= 0 && sol.Value(v) > supportTol {
					used[p] = true
					break
				}
			}
		}
		d.used[pk] = used
	}
}

// price runs one pricing round: build the per-slice dual edge weights,
// query the oracle for every (job, live slice) whose threshold is
// positive, and append the at most two most violated new paths per job
// as columns over all its live slices. Returns the appended column and
// row counts for Basis.Extend. Iteration is jobs then slices ascending
// and candidate selection breaks ties by first discovery, so the round
// is deterministic.
func (d *cgDiscovery) price(ms *cgMaster, sol *lp.Solution) (addedVars, addedRows int, err error) {
	inst := ms.inst
	ns := inst.Grid.Num()
	// w[j][e] = max(0, −y_{e,j}); slices with no loaded capacity row stay
	// nil (all-zero weights), and so does a cell without a row: its y is 0.
	prices := make([][]float64, ns)
	for i, ck := range ms.cells.kept {
		if w := -sol.Duals[inst.NumJobs()+i]; w > 0 {
			if prices[ck.j] == nil {
				prices[ck.j] = make([]float64, inst.G.NumEdges())
			}
			prices[ck.j][ck.e] = w
		}
	}
	type oracleKey struct {
		src, dst netgraph.NodeID
		j        int
	}
	type oracleHit struct {
		p  paths.Path
		ok bool
	}
	memo := make(map[oracleKey]oracleHit)
	solver := paths.NewSolver(inst.G.NumNodes())
	type proposal struct {
		k int
		p paths.Path
	}
	var props []proposal
	type candidate struct {
		p    paths.Path
		viol float64
	}
	for k := range inst.Jobs {
		sigma := sol.Duals[k] // job k's coupling/demand row is row k
		jb := inst.Jobs[k]
		have := make(map[string]bool, len(inst.JobPaths[k]))
		for _, p := range inst.JobPaths[k] {
			have[p.Key()] = true
		}
		cands := make(map[string]*candidate)
		var order []string // first-discovery order, for deterministic ties
		for j, v := range ms.xv[k][0] {
			if v < 0 {
				continue // slice outside the job's (extended) window
			}
			thr := sigma * inst.Grid.Len(j)
			if ms.stage == "subret" {
				thr -= retGamma(j)
			}
			if thr <= colgenTol {
				continue
			}
			ok := oracleKey{jb.Src, jb.Dst, j}
			hit, found := memo[ok]
			if !found {
				p, pok := solver.PricedShortest(inst.G, jb.Src, jb.Dst, nil, prices[j], d.avoid)
				hit = oracleHit{p, pok}
				memo[ok] = hit
			}
			if !hit.ok {
				continue
			}
			viol := thr - hit.p.Cost
			if viol <= colgenTol {
				continue
			}
			pk := hit.p.Key()
			if have[pk] {
				continue
			}
			if c, seen := cands[pk]; seen {
				if viol > c.viol {
					c.viol = viol
				}
			} else {
				cands[pk] = &candidate{p: hit.p, viol: viol}
				order = append(order, pk)
			}
		}
		// Keep the two most violated distinct paths: enough to make
		// progress on several slices at once without flooding the master
		// with near-duplicates that the next round's duals would reject.
		sort.SliceStable(order, func(a, b int) bool {
			return cands[order[a]].viol > cands[order[b]].viol
		})
		for i := 0; i < len(order) && i < 2; i++ {
			props = append(props, proposal{k, cands[order[i]].p})
		}
	}
	for _, pr := range props {
		nv, nr, err := ms.appendPath(pr.k, pr.p)
		if err != nil {
			return 0, 0, err
		}
		addedVars, addedRows = addedVars+nv, addedRows+nr
		atomic.AddInt64(&d.added, 1)
	}
	return addedVars, addedRows, nil
}

// appendPath gives job k one more path: a column on each slice the job's
// other paths have one, plus the capacity rows the path needs (hopRows).
// Returns the appended column and row counts.
func (ms *cgMaster) appendPath(k int, path paths.Path) (addedVars, addedRows int, err error) {
	inst := ms.inst
	pidx := len(ms.xv[k])
	inst.JobPaths[k] = append(inst.JobPaths[k], path)
	inst.cells = nil // the closed layout of the smaller pool
	nRows := ms.m.NumRows()
	row := make([]lp.VarID, inst.Grid.Num())
	for j := range row {
		row[j] = -1
	}
	for j, v0 := range ms.xv[k][0] {
		if v0 < 0 {
			continue
		}
		rows := make([]lp.RowID, 1, 1+len(path.Edges))
		rows[0] = lp.RowID(k)
		rows = ms.hopRows(path.Edges, j, rows)
		coefs := make([]float64, len(rows))
		coefs[0] = inst.Grid.Len(j)
		for i := 1; i < len(coefs); i++ {
			coefs[i] = 1
		}
		obj := 0.0
		if ms.stage == "subret" {
			obj = retGamma(j)
		}
		v, cerr := ms.m.AddColumn("", 0, lp.Inf, obj, rows, coefs)
		if cerr != nil {
			return 0, 0, cerr
		}
		row[j] = v
		addedVars++
	}
	ms.xv[k] = append(ms.xv[k], row)
	if ms.onEdge != nil {
		ms.indexPath(k, pidx)
	}
	return addedVars, ms.m.NumRows() - nRows, nil
}
