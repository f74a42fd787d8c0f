# Developer entry points. `make check` is the gate run before sending a
# change: formatting, vet, build, the example programs, and the full test
# suite under the race detector.

GO ?= go

.PHONY: check fmt-check vet build examples-smoke loc test race race-serve cluster-test fuzz-smoke bench bench-smoke bench-epoch-smoke bench-pairs bench-admission bench-ret bench-scale bench-telemetry bench-trace-guard bench-cluster-guard clean

check: fmt-check vet build examples-smoke race-serve race cluster-test fuzz-smoke bench-epoch-smoke

# Fails, listing them, when gofmt would rewrite any file.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Runs every example program once (each exits non-zero on an error, the
# abilene one also when its schedule breaks eq. 3, 4 or 10) and fails on the
# first that does; all of them take under a second.
EXAMPLES = $(patsubst %/main.go,%,$(wildcard examples/*/main.go))
examples-smoke:
	@for e in $(EXAMPLES); do echo "$$e"; $(GO) run ./$$e > /dev/null || exit 1; done

# The size of the tree, for ROADMAP's "non-test line count going down": Go
# lines outside bench/ that are neither tests nor test data, the largest such file, the same
# lines inside internal/schedule, internal/controller and internal/lp, test lines, flag registrations under cmd/, instrument registrations on the
# default telemetry registry, the settable (exported) fields of the solver
# and controller config structs, how many of those fields are documented
# `Deprecated: ignored`, and the entries on the two allowlists of exported
# functions and methods no program calls (internal/integration/callers_test.go).
# Printed, never gated.
CONFIG_STRUCTS = lp.Options=internal/lp/simplex.go schedule.Config=internal/schedule/stage2.go \
	schedule.RETConfig=internal/schedule/ret.go schedule.ColGenConfig=internal/schedule/colgen.go \
	schedule.InstanceOptions=internal/schedule/instance.go controller.Config=internal/controller/controller.go
loc:
	@printf 'non-test go lines outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l
	@printf 'largest non-test go file outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs wc -l | grep -v ' total$$' | sort -n | tail -1 | awk '{print $$2, $$1}'
	@printf 'non-test go lines in internal/schedule: '; find internal/schedule -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'non-test go lines in internal/controller: '; find internal/controller -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'non-test go lines in internal/lp: '; find internal/lp -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'test go lines: '; find . -name '*_test.go' | xargs cat | wc -l
	@printf 'flag registrations under cmd/: '; find cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE '\<(flag|fs)\.(Bool|Int|Int64|Uint|Float64|String|Duration|Func)(Var)?\('
	@printf 'lp.Pricing rules: '; awk '/^\/\/ Pricing rules\./ {body = 1; next} body && /^\)/ {exit} body && /^\t[A-Z][A-Za-z]*( Pricing = iota)?$$/ {n++} END {print n + 0}' internal/lp/simplex.go
	@printf 'instrument registrations: '; find . -name '*.go' ! -name '*_test.go' | xargs cat | grep -oE 'telemetry\.Default\(\)\.(Counter|Gauge|Histogram)[A-Za-z]*\(' | wc -l
	@for s in $(CONFIG_STRUCTS); do name=$${s%%=*}; printf 'settable fields in %s: ' $$name; \
		awk -v t="$${name#*.}" '$$0 ~ "^type " t " struct" {body = 1; next} body && /^}/ {exit} body && /^\t[A-Z]/ {n++} END {print n + 0}' $${s#*=}; done
	@printf 'deprecated (ignored) fields in those structs: '; for s in $(CONFIG_STRUCTS); do name=$${s%%=*}; \
		awk -v t="$${name#*.}" '$$0 ~ "^type " t " struct" {body = 1; next} body && /^}/ {exit} body && /Deprecated: ignored/ {n++} END {print n + 0}' $${s#*=}; done | awk '{n += $$1} END {print n + 0}'
	@printf 'exported without a program caller: '; awk '/^var (exportedWithoutCaller|methodsWithoutCaller) = map/ {body = 1; next} body && /^}/ {body = 0} body && /^\t"/ {n++} END {print n + 0}' internal/integration/callers_test.go

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race gate for the concurrent serving stack: the HTTP daemon's
# single-writer discipline and the controller it serializes. Fast subset
# run before the full race suite.
race-serve:
	$(GO) test -race ./internal/server/... ./internal/controller/...

# HA failover acceptance at process scale: three real daemons on local
# ports, SIGKILL of the leader, follower takeover with byte-identical
# replayed state, a post-failover write, and a replication-metric scrape.
# (The in-process failover/fencing/soak tests run in the normal race
# suite; this target adds the real-process, real-signal layer.)
cluster-test:
	WAVESCHED_CLUSTER_E2E=1 $(GO) test ./cmd/wavesched -run TestClusterProcessE2E -count=1 -v

# A short fuzz budget, split over the properties the schedule's determinism
# rests on (DESIGN §10): a lexicographic solve returns one point whatever the
# pricing rule, refactorization period, crash basis, starting basis and build
# order; a closed model built without its dominated capacity rows is the LP
# the all-rows builder poses; a column-generation master kept closed as
# it grows is, after every appended path, the all-rows master over the same
# columns; and the stage-1 bound never exceeds a block's Z*, so the blocks
# stage 1 skips leave Z* bit for bit the minimum over every block; and a
# basis carried onto another model by Remap squares to one that factors and
# warm-starts to the cold plan; and both callers of the warm path — a warm
# start from a captured basis and an Incremental re-entering its live one —
# agree with a cold solve after bound, cost and right-hand-side changes; and
# every BTRAN that starts from the last one's result (the primal duals, the
# dual loop's pivot row and duals) is the dense solve bit for bit; and the RET
# search's two answers without a solve — a stored plan's window fit and the
# interval bound — agree with a fresh solve; and Yen's k-shortest paths
# over stamped ban sets are the map-based oracle's, path for path. A
# failing input is written under the package's testdata/fuzz; minimise and
# commit it. A budget includes replaying the corpus the local cache has
# grown, so each is set above that replay and every step tries new inputs
# (replays on a warm 2-CPU cache: lex 2.1 s, remap 0.8 s, warm path 0.7 s,
# restricted BTRAN 6.0 s, dominated rows 3.4 s, under growth 3.5 s, stage-1
# bound 1.6 s, RET probes 1.4 s, Yen under 1 s). A fresh CI cache fuzzes
# from the start.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLexInvariance -fuzztime 8s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzRemapBasis$$' -fuzztime 4s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzWarmStartEquivalence$$' -fuzztime 4s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzRestrictedBTRAN$$' -fuzztime 10s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzDominatedRows$$' -fuzztime 8s ./internal/schedule
	$(GO) test -run '^$$' -fuzz '^FuzzDominatedRowsUnderGrowth$$' -fuzztime 8s ./internal/schedule
	$(GO) test -run '^$$' -fuzz '^FuzzStage1Bound$$' -fuzztime 4s ./internal/schedule
	$(GO) test -run '^$$' -fuzz '^FuzzRETProbeAnswers$$' -fuzztime 4s ./internal/schedule
	$(GO) test -run '^$$' -fuzz '^FuzzKShortestAvoiding$$' -fuzztime 4s ./internal/paths

# Full benchmark harness at quick scale (minutes).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Benchmark smoke: one iteration of the telemetry-off guard and the
# decomposition speedup, so those
# paths are exercised (and kept compiling) on every PR without paying for
# a full bench run; likewise one iteration of the lp kernel benchmarks
# (primal iteration on both sides of its cut-overs and on a slack run,
# refactorize with and without the factors kept, LU) and of the solve
# allocation guard, whose allocs/op (cold, warm, distinct models) print on
# every run. The
# later steps regenerate Fig. 3 (gated ±20% against
# BENCH_04.json), the Fig. 4 RET sweep (gated ±10% against BENCH_09.json,
# which also pins fig4 lp_ms at the certificate-pruned level), and the
# scale-tier proxy (gated ±10% against BENCH_10.json) at quick scale.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSolveTelemetryOff$$|BenchmarkRETDecomposition' -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkPrimalIteration|BenchmarkRefactorize$$|BenchmarkLUFactorize|BenchmarkSolveAllocs' -benchtime 1x ./internal/lp
	$(GO) run ./cmd/benchfig -quick -fig 3 -json /tmp/benchsmoke.json -baseline BENCH_04.json -max-regress 20
	$(MAKE) bench-admission
	$(MAKE) bench-ret
	$(MAKE) bench-scale
	$(MAKE) bench-trace-guard
	$(MAKE) bench-cluster-guard

# Daemon-epoch benchmark, functional half of its gate (BENCHMARK.json's
# `go run ./bench`): every workload on a tiny graph for 4 ticks with every
# schedule verified (untraced pass, traced pass and layer replay), then
# the count-determinism self-check — the exact per-layer counts (solves,
# pivots, probes, ...) must repeat bit for bit, which is what lets a
# kernel change be told from a trajectory change. Timings are not gated
# here; the benchmark driver compares those.
bench-epoch-smoke:
	$(GO) run ./bench -smoke
	$(GO) run ./bench -check

# Paired runs for a performance claim (the choosing-metrics procedure):
#   make bench-pairs BASE=<rev> WORKLOAD=<name> [N=10] [SEED=1]
# builds ./bench at BASE (in a temporary git worktree) and in the working
# tree, runs the two binaries alternately with -traced=false, and prints per
# end-to-end metric both medians, both inter-quartile ranges, the win count
# and every run. WORKLOAD empty runs all five (~2 min per run).
N ?= 10
SEED ?= 1
bench-pairs:
	$(if $(BASE),,$(error usage: make bench-pairs BASE=<rev> WORKLOAD=<name> [N=10] [SEED=1]))
	$(GO) run ./cmd/benchpairs -base $(BASE) -workload '$(WORKLOAD)' -n $(N) -seed $(SEED)

# RET search-speed gate: regenerate the Fig. 4 sweep at quick scale under
# the probe-economy lens and fail if lp_ms or wall time regressed more
# than 10% against the committed BENCH_09.json (the certificate-pruned
# search baseline; the lp_ms guard is direction-aware — only slowdowns
# fail, speedups just move the next committed baseline).
bench-ret:
	$(GO) run ./cmd/benchfig -quick -fig ret -json /tmp/benchret.json -baseline BENCH_09.json -max-regress 10

# Scale-tier gate: the quick proxy of the 400/1000-node sweep (K=8
# enumeration vs column generation), gated ±10% against the committed
# BENCH_10.json. lp_ms here is the column-generation arm's wall time, so
# the guard is direction-aware: only a colgen slowdown fails, while the
# enumeration baseline getting slower cannot mask one.
bench-scale:
	$(GO) run ./cmd/benchfig -quick -fig scale -json /tmp/benchscale.json -baseline BENCH_10.json -max-regress 10

# Admission-subsystem sustained-load smoke: 5000 durable submissions
# through the batched intake path. Fails if batched intake throughput drops more than 10% against the
# committed BENCH_08.json baseline.
bench-admission:
	$(GO) run ./cmd/benchfig -quick -fig admission -json /tmp/benchadmission.json -baseline BENCH_08.json -max-regress 10

# The two overhead guards below hold an "on" benchmark to its "off" twin.
# Each builds the test binary once and runs it 9 times; a run measures off
# and then on, so every off sample is paired with the on sample taken right
# after it, and a drift of the host between runs cancels in their ratio. The
# verdict is the median of the 9 paired on/off ratios, printed with their
# quartiles and range. (`-count 5` runs every off sample before any on one,
# and the min-of-5 per side it fed failed on unchanged code.)
#   $(call overhead-guard,<target>,<package dir>,<benchmark>,<benchtime>,<max ratio>,<what>)
define overhead-guard
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -c -o "$$dir/guard.test" ./$(2) && \
	for i in 1 2 3 4 5 6 7 8 9; do \
		(cd $(2) && "$$dir/guard.test" -test.run '^$$' -test.bench '^$(3)$$' -test.benchtime $(4)); \
	done | awk -v guard=$(1) -v bench=$(3) -v n=9 -v limit=$(5) -v what='$(6)' ' \
		index($$1, bench "/off") == 1 { off[++noff] = $$3 } \
		index($$1, bench "/on") == 1  { on[++non] = $$3 } \
		{ print } \
		END { \
			if (noff != n || non != n) { printf "%s: %d off and %d on samples, want %d of each\n", guard, noff, non, n; exit 1 } \
			for (i = 1; i <= n; i++) r[i] = on[i] / off[i]; \
			for (i = 2; i <= n; i++) { v = r[i]; for (j = i - 1; j >= 1 && r[j] > v; j--) r[j + 1] = r[j]; r[j + 1] = v } \
			med = n % 2 ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2; q = int((n + 3) / 4); \
			printf "%s: %s overhead %+.1f%%, the median of %d paired on/off ratios (quartiles %+.1f%% .. %+.1f%%, range %+.1f%% .. %+.1f%%)\n", \
				guard, what, (med - 1) * 100, n, (r[q] - 1) * 100, (r[n + 1 - q] - 1) * 100, (r[1] - 1) * 100, (r[n] - 1) * 100; \
			if (med > limit) { printf "%s: FAIL, %s overhead exceeds %.0f%%\n", guard, what, (limit - 1) * 100; exit 1 } \
		}'
endef

# Tracing-overhead guard: the Fig. 4 RET solve with JSONL span tracing
# enabled must stay within 5% of the tracing-off path (the per-span work
# is one buffered JSON encode; the probe LP dominates). The solve takes
# ~35 ms (2-CPU Xeon), and one 10-iteration sample moves by more than the
# 5% under test, hence the paired median.
bench-trace-guard:
	$(call overhead-guard,bench-trace-guard,.,BenchmarkFig4Tracing,10x,1.05,tracing)

# Guard for the telemetry layer's disabled-path cost: lp.SolveWith with
# no tracer attached must stay within noise (<2%) of the seed solver.
bench-telemetry:
	$(GO) test -run xxx -bench SolveTelemetryOff -benchtime 20x -count 3 .

# No-cluster overhead guard: the HA hooks on the serving write path (one
# nil interface check + an atomic leader load) must cost ≤2% when
# clustering is off; the paired median suppresses scheduler noise.
bench-cluster-guard:
	$(call overhead-guard,bench-cluster-guard,internal/server,BenchmarkClusterHooks,10000x,1.02,cluster-hook)

clean:
	$(GO) clean ./...
