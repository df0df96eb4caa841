# MEPipe reproduction — common workflows.

GO ?= go

.PHONY: all build test vet lint lint-json verify-presets race-hot race bench bench-kernels bench-smoke bench-serve bench-opt bench-sim bench-sweep serve-smoke opt-smoke sim-smoke sweep-smoke opt-regen report figures artifact check ci smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate plus the repo-invariant analyzers (docs/VERIFICATION.md):
# fails when gofmt would change anything or mepipe-lint finds a violation
# the allowlist does not sanction. Whole-module runs include the
# interprocedural analyzers (transitive-determinism, hotpath-alloc,
# ctxflow) and the allowlist staleness check.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "files need gofmt:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) run ./cmd/mepipe-lint ./...

# The same analyzers in machine-readable form: one JSON object per
# diagnostic (rule, file, line, col, msg, chain) — what the lint-deep CI
# job feeds through the GitHub problem matcher.
lint-json:
	$(GO) run ./cmd/mepipe-lint -json ./...

# The static certifier against every schedule preset: proves the
# svpp/mepipe/vpp families deadlock-free and within their analytic
# per-stage activation bounds across pipeline depths.
verify-presets:
	$(GO) test ./internal/verify -run Presets

# The concurrency-sensitive packages (goroutine runtime with
# crash-recovery, parallel GEMM kernels + scratch arena, shared trace
# sinks, fault injector) under the race detector — fast enough for
# every commit.
race-hot:
	$(GO) test -race ./internal/pipeline/... ./internal/obs/... ./internal/chaos/... ./internal/tensor/... ./internal/nn/... ./internal/opt/...

# Everything under the race detector — what the CI race job runs.
race:
	$(GO) test -race ./...

# The default pre-commit gate.
check: build vet test race-hot

# Artifact smoke: E0 end to end against its expected-results file, plus
# the chaos CLI's Young–Daly verdict.
smoke:
	sh artifact/e0_check.sh
	$(GO) run ./cmd/mepipe-chaos

# Planning-server smoke (docs/SERVE.md): boots mepipe-serve on an
# ephemeral port in-process, proves a /v1/search answers certified, the
# identical repeat is a cache hit, and the stats reflect both.
serve-smoke:
	$(GO) run ./cmd/mepipe-serve -selfcheck

# Planning-server load benchmark: drives an in-process server with
# concurrent clients and regenerates the machine-readable latency/cache
# baseline (BENCH_serve.json) future PRs regress against.
bench-serve:
	$(GO) run ./cmd/mepipe-bench -serve-load -serve-out $(CURDIR)/BENCH_serve.json

# Optimizer smoke (docs/OPTIMIZER.md): a short fixed-seed annealing run,
# the discovered-schedule regression gate — the checked-in schedule under
# internal/opt/testdata must re-certify, re-simulate to its recorded
# time, and still beat its recorded preset baseline — the certifier's
# allocation floor on the annealer's proposals (a rejected proposal
# allocates little beyond its counterexample), and a one-round replay of
# the BENCH_opt harness.
opt-smoke:
	$(GO) test ./internal/opt -run 'TestDiscoveredBeatsPresets|TestOptimizeSmoke' -count=1
	$(GO) test ./internal/verify -run TestCertifyAllocs -count=1
	$(GO) run ./cmd/mepipe-bench -opt -opt-iters 1 -opt-out $(CURDIR)/BENCH_opt_smoke.json

# Optimizer throughput benchmark: replays the checked-in artifact's full
# optimization (same point, same seed — the replay rediscovers the
# recorded schedule exactly) and regenerates the machine-readable
# baseline (BENCH_opt.json) future PRs regress against.
bench-opt:
	$(GO) run ./cmd/mepipe-bench -opt -opt-out $(CURDIR)/BENCH_opt.json

# Regenerate the checked-in discovered-schedule artifact. The writer
# refuses to record a schedule that does not beat the preset sweep.
opt-regen:
	$(GO) test ./internal/opt -run TestWriteDiscovered -write-discovered

# Simulator fast-path smoke (docs/PERFORMANCE.md): the bitwise
# session/batch equivalence tables and edge-case regressions, a short run
# of the differential fuzzer, the discovered-artifact session replay
# gate, and a small -sim bench pass (which cross-checks every candidate
# bitwise before timing).
sim-smoke:
	$(GO) test ./internal/sim -run 'TestSession|TestEvaluate|TestDynamicOOM|TestStats|TestTraceWait' -count=1
	$(GO) test ./internal/sim -run NONE -fuzz FuzzIncrementalEquivalence -fuzztime 10s
	$(GO) test ./internal/opt -run TestDiscoveredReplaysThroughSession -count=1
	$(GO) run ./cmd/mepipe-bench -sim -sim-candidates 64 -sim-out $(CURDIR)/BENCH_sim_smoke.json

# Simulator throughput benchmark: measures candidate-evaluation rates of
# the full replay, the incremental session, and batched EvaluateMany on
# the artifact's canonical point, and regenerates the machine-readable
# baseline (BENCH_sim.json) future PRs regress against.
bench-sim:
	$(GO) run ./cmd/mepipe-bench -sim -sim-out $(CURDIR)/BENCH_sim.json

# Sweep-engine smoke (docs/PERFORMANCE.md): the golden equivalence suite
# (sweep vs sequential search at 8/16/32 GPUs, ±prune, and mid-sweep
# cancellation), short runs of the certifier's differential fuzzers (the
# dense path against the map graph and map sweep, and Certify against
# sim.Run's deadlock verdict), the /v1/sweep wire tests, and a short
# -sweep bench pass (which cross-checks every candidate bitwise against
# the per-point search before timing).
sweep-smoke:
	$(GO) test ./internal/strategy -run 'TestSweep' -count=1
	$(GO) test ./internal/verify -run NONE -fuzz FuzzCertifyDenseMatchesGraph -fuzztime 10s
	$(GO) test ./internal/verify -run NONE -fuzz FuzzCertifyAgreesWithRun -fuzztime 10s
	$(GO) test ./internal/serve ./api/v1 -run 'Sweep' -count=1
	$(GO) run ./cmd/mepipe-bench -sweep -sweep-min-s 0.5 -sweep-out $(CURDIR)/BENCH_sweep_smoke.json

# Sweep-engine throughput benchmark: measures multi-system grid-search
# rates of the streaming sweep engine against the per-point search
# (strategy.SearchContext) live in the same process, and regenerates the
# machine-readable baseline (BENCH_sweep.json).
bench-sweep:
	$(GO) run ./cmd/mepipe-bench -sweep -sweep-min-s 4 -sweep-out $(CURDIR)/BENCH_sweep.json

# Mirror of the GitHub Actions pipeline (.github/workflows/ci.yml).
ci: build vet test lint verify-presets race-hot bench-smoke serve-smoke opt-smoke sim-smoke sweep-smoke smoke

bench:
	$(GO) test -bench=. -benchmem .

# Kernel micro-benchmarks: regenerate the machine-readable perf baseline
# (BENCH_kernels.json) future PRs regress against, then print the suite.
bench-kernels:
	$(GO) test ./internal/tensor -run TestWriteKernelBaseline -args -bench-json=$(CURDIR)/BENCH_kernels.json
	$(GO) test ./internal/tensor -run NONE -bench 'BenchmarkKernels|BenchmarkMatMul256'

# One-iteration smoke of the kernel benchmarks (CI: proves they run).
bench-smoke:
	$(GO) test ./internal/tensor -run NONE -bench BenchmarkKernels -benchtime 1x
	$(GO) test ./internal/nn -run NONE -bench BenchmarkTrainStep -benchtime 1x

# Regenerate every paper table/figure as text.
eval:
	$(GO) run ./cmd/mepipe-bench

# Self-contained HTML report with embedded timelines.
report:
	$(GO) run ./cmd/mepipe-report -o report.html

# The Figs 2-7 schedule gallery.
figures:
	$(GO) run ./cmd/mepipe-figures > docs/SCHEDULES.md

# The paper's artifact workflow (E0/E1/E2).
artifact:
	cd artifact && sh e0_run.sh && sh e1_run.sh && sh e2_run.sh

clean:
	rm -f report.html artifact/results/*.txt BENCH_opt_smoke.json BENCH_sim_smoke.json BENCH_sweep_smoke.json
