# MEPipe reproduction — common workflows.

GO ?= go

.PHONY: all build test vet lint lint-json verify-presets race-hot race bench bench-kernels bench-smoke layout-diff serve-smoke opt-smoke sim-smoke sweep-smoke opt-regen report figures artifact check ci smoke clean

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
# every commit — and the planning server's shared state: the coalescer
# and the LRU cache with its raw-body aliases, under a concurrent
# hit/miss/evict mix.
race-hot:
	$(GO) test -race ./internal/pipeline/... ./internal/obs/... ./internal/chaos/... ./internal/tensor/... ./internal/nn/... ./internal/opt/...
	$(GO) test -race ./internal/serve -run 'TestAliasConcurrent|TestCoalescing|TestDisconnect|TestCoalescedSurvivorGetsResult' -count=1

# Everything under the race detector — what the CI race job runs.
race:
	$(GO) test -race ./...

# The default pre-commit gate.
check: build vet test race-hot

# Artifact smoke: E0 end to end against its expected-results file, the
# chaos CLI's Young–Daly verdict, and the training runtime's bitwise pins:
# the checkpoint bytes of a seeded model, the weights after fixed Adam
# steps, the data-parallel all-reduced gradients, each stage's owned
# weights after two pipelined SGD steps, and the per-stage EvCkpt
# snapshot bytes — each recorded before the parameter table existed.
smoke:
	sh artifact/e0_check.sh
	$(GO) run ./cmd/mepipe-chaos
	$(GO) test ./internal/nn -run 'TestCheckpointBytesPinned|TestAdamPinned' -count=1
	$(GO) test ./internal/pipeline -run 'TestDataParallelGradsPinned|TestOwnedWeightsPinned|TestCheckpointEventBytesPinned' -count=1

# Planning-server smoke (docs/SERVE.md): boots mepipe-serve on an
# ephemeral port in-process, proves a /v1/search answers certified, the
# identical repeat is a cache hit, and the stats reflect both; then short
# runs of the alias-equivalence fuzzer (a server that serves repeated
# bytes through their raw-body digest replies byte for byte like one that
# always decodes and compiles, evictions included) and of every api/v1
# decoder fuzzer (decoding never panics, the serving compile step accepts
# exactly what Normalize accepts, normalizing a canonical document is the
# identity, and a key survives re-encoding with another field order and
# whitespace).
serve-smoke:
	$(GO) run ./cmd/mepipe-serve -selfcheck
	$(GO) test ./internal/serve -run NONE -fuzz '^FuzzAliasEquivalence$$' -fuzztime 10s
	$(GO) test ./api/v1 -run NONE -fuzz '^FuzzDecodePlanRequest$$' -fuzztime 10s
	$(GO) test ./api/v1 -run NONE -fuzz '^FuzzDecodeTraceRequest$$' -fuzztime 10s
	$(GO) test ./api/v1 -run NONE -fuzz '^FuzzDecodeSweepRequest$$' -fuzztime 10s
	$(GO) test ./api/v1 -run NONE -fuzz '^FuzzDecodeOptimizeRequest$$' -fuzztime 10s
	$(GO) test ./api/v1 -run NONE -fuzz '^FuzzDecodeCertifyRequest$$' -fuzztime 10s

# Optimizer smoke (docs/OPTIMIZER.md): a short fixed-seed annealing run,
# the discovered-schedule regression gate — the checked-in schedule under
# internal/opt/testdata must re-certify, re-simulate to its recorded
# time, and still beat its recorded preset baseline — the artifact run's
# pin (replaying its seed reproduces the schedule bytes, the five search
# counters 6000/3271/2729/908/5 and the best time bit for bit), the move
# path's floors at the 13B point's size (a move's decision ≥ 10× a full
# Certify plus a fresh session evaluation per annealer proposal, and an
# overlay's evaluation and commit ≥ 10× a full session bind and
# evaluation per accepted move, both at 0 allocs), the allocation gates (deciding and committing a move
# allocates nothing; a rejected Certify little beyond its
# counterexample; a whole run at the artifact point at most 150 objects;
# a run at the 13B point at most 3 MB on one core), a short run of the
# move fuzzer (every move's verdict against Certify and its Result
# against sim.Run under the annealer's options, its times against a
# plain-cost sim.Run, bit for bit, with commits interleaved), the
# worker-group checks (the same search at every
# Workers × GOMAXPROCS, on the serial and the fan-out side; the fan-out
# decision at its reference points; no goroutine outlives a run,
# cancelled or failed ones included).
opt-smoke:
	$(GO) test ./internal/opt -run 'TestDiscoveredBeatsPresets|TestDiscoveredBytesPinned|TestOptimizeSmoke|TestMoveFloor|TestMoveAllocs|TestOptimizeAllocs|TestOptimizeDeterministicAcrossWorkers|TestFanOutReferencePoints|TestOptimizeJoinsWorkers' -count=1
	$(GO) test ./internal/strategy -run 'TestOptimize13BBytes' -count=1
	$(GO) test ./internal/verify -run 'TestCertifyAllocs' -count=1
	$(GO) test ./internal/opt -run NONE -fuzz FuzzMoveMatchesCertifyAndRun -fuzztime 10s

# Regenerate the checked-in discovered-schedule artifact. The writer
# refuses to record a schedule that does not beat the preset sweep.
opt-regen:
	$(GO) test ./internal/opt -run TestWriteDiscovered -write-discovered

# Simulator fast-path smoke (docs/PERFORMANCE.md): the bitwise
# session/Evaluate equivalence tables against the reference runner —
# results and, traced, every recorded event — and the edge-case
# regressions, the incremental-replay floors (a move overlay's Load+Eval,
# with its commit, ≥ 3× the reference full replay at 0 allocs per walk
# step, and its Load+Eval ≥ 2× the session's dense Session.Eval per
# certified shift proposal at the 13B point, 0 allocs), the planning-grid
# check (pooled evaluation vs the reference runner, traces included), the
# order-free lower bounds (critical-path bits pinned under real costs),
# the recording's Snapshot checks (per-stage forward/backward/weight/tail
# times, memory events peaking at PeakAct, makespan equal to IterTime),
# the tail pin (a resolved plan's recording keeps its gradient-sync tail,
# and its Snapshot breakdown is /v1/simulate's, bit for bit), a short run
# of the differential fuzzer, a short run of the written-order fuzzer (the
# order the §5 engine ran, written back by sim.WriteOrder, replays the
# dynamic run bit for bit, statically and dynamically), and the
# discovered-artifact session replay gate.
sim-smoke:
	$(GO) test ./internal/sim -run 'TestSession|TestEvaluateMatchesRun|TestDynamicOOM|TestStageUtilization|TestMemorySeriesConsistent|TestTraceMatchesResult|TestTraceWait|TestIncrementalReplayFloor|TestPlanningGrid|TestMakespanBounds' -count=1
	$(GO) test ./internal/obs -run TestTailEvents -count=1
	$(GO) test ./api/v1 -run TestRecordedTraceKeepsTail -count=1
	$(GO) test ./internal/sim -run NONE -fuzz FuzzIncrementalEquivalence -fuzztime 10s
	$(GO) test ./internal/sim -run NONE -fuzz FuzzWriteOrderReplays -fuzztime 10s
	$(GO) test ./internal/opt -run TestDiscoveredReplaysThroughSession -count=1

# Grid-search engine smoke (docs/PERFORMANCE.md): the golden equivalence
# suite (Sweep and SearchContext vs the sequential oracle at 8/16/32 GPUs,
# ±prune, the pruned best equal to the unpruned one, a pruned sweep read
# to rank 3, and mid-sweep cancellation), the pruned-search regression
# rows (the best bit for bit with and without pruning, including the
# Llama-7B × 64 A100 point the Table 3 bound got wrong), the pruned top-k
# table (a seeded subset of the probe grid: for k = 1, 3, 5 the pruned
# first k candidates equal the unpruned ones), the session-gate test (a
# plan made cyclic is rejected with Certify's counterexample in the old
# words, and a traced run emits nothing), the plan-cold search's
# allocation ceilings (pruned, at most 1,000 objects; unpruned, at most
# 1 MB), a short run of the work bound's soundness
# fuzzer (the bound never exceeds a feasible point's simulated time), the
# peak-equality test (Certify's
# per-stage peaks equal sim.Run's static ones under the same footprints,
# a SlotBudget's included, over every preset family — the one retention rule, applied alike), the
# certifier's verdict on partial tables (rejected alike with or without
# AssumeComplete), the pinned absent-dependency texts of
# Certify and the simulator session, the pinned structural texts of the
# two producers of the structural verdict (one sched.Program.Load pass,
# each producer's words),
# the session's universe bugfixes (a stray piece rejected at bind, diff
# and reload; a non-positive shape rejected at bind), the generator's
# release safety (arrays a released schedule hands back never reach a
# schedule still held, and no stage's list can spill into the next), short runs of the
# certifier's differential fuzzers (the dense path — the only production
# path — against the test-only map graph and map sweep, and Certify
# against sim.Run's deadlock verdict, dynamic W included, the strategy
# path's gate), a short run of the universe-verdict fuzzer (Certify, a
# session bind plus its first Eval and a bound session's Eval accept or
# reject a broken table alike), the /v1/sweep
# wire tests, and the one-resolver gates: TestResolvePinned (Evaluate's
# time, bubble, peak, budget, n, f and OOM verdict bit for bit, one row per
# system plus static, ChooseF and simulated OOMs and shape errors, and a
# short Optimize run's counters, all recorded before the resolver was
# shared), the façade planner's compatibility and ErrOOM bugfix tests, and
# PlanMEPipeAt's simulation equal to Evaluate's bit for bit.
sweep-smoke:
	$(GO) test ./internal/strategy -run 'TestSweep|TestResolvePinned|TestPrunedSearchSameBest|TestPrunedTopKExact|TestSimulateRejectsCycle|TestPlanColdAllocs|TestPlanColdBytes' -count=1
	$(GO) test ./internal/strategy -run NONE -fuzz '^FuzzWorkBoundSound$$' -fuzztime 10s
	$(GO) test . -run 'TestPlanMEPipeAtIncompatible|TestPlanMEPipeOOMSentinels|TestPlanSimulateMatchesEvaluate' -count=1
	$(GO) test ./internal/verify -run 'TestCertifyPeaksMatchRun|TestIncompleteAndMissing|TestMissingDepMessage|TestUniverseTexts' -count=1
	$(GO) test ./internal/sched -run 'TestReleaseReusesSafely' -count=1
	$(GO) test ./internal/sim -run 'TestSessionAbsentDepMessage|TestSessionIncompatible|TestSessionNonPositiveShape' -count=1
	$(GO) test ./internal/verify -run NONE -fuzz FuzzUniverseVerdicts -fuzztime 10s
	$(GO) test ./internal/verify -run NONE -fuzz FuzzCertifyDenseMatchesGraph -fuzztime 10s
	$(GO) test ./internal/verify -run NONE -fuzz FuzzCertifyAgreesWithRun -fuzztime 10s
	$(GO) test ./internal/serve ./api/v1 -run 'Sweep' -count=1

# Mirror of the GitHub Actions pipeline (.github/workflows/ci.yml).
ci: build vet test lint verify-presets race-hot bench-smoke serve-smoke opt-smoke sim-smoke sweep-smoke smoke

bench:
	$(GO) test -bench=. -benchmem .

# Kernel micro-benchmarks: the whole suite (docs/PERFORMANCE.md).
bench-kernels:
	$(GO) test ./internal/tensor -run NONE -bench 'BenchmarkKernels|BenchmarkMatMul256|BenchmarkDecoderSlice'

# One-iteration smoke of the kernel benchmarks (CI: proves they run), the
# serial GEMM floor: on the decoder slice's mix, MatMul, MatMulBT,
# MatMulAT and the three together each at least their floor times their
# naive oracles at 0 allocs, on every SIMD leaf set the CPU runs (amd64:
# the AVX2 floors on the AVX2 and the AVX-512 leaves, higher ones for the
# AVX-512 MatMul and MatMulAT; the Go loops' ratios are logged only), run
# verbose so the log shows which leaf sets ran and their ratios, and the
# exp floor: the sigmoid leaf at least 3× the scalar loop per element at
# 0 allocs (amd64 with AVX2 and FMA; skipped, with the ratio logged,
# without them), and the cost model's per-query floor: OpTime allocates
# nothing, with SPP slices and with CP.
bench-smoke:
	$(GO) test ./internal/tensor -run NONE -bench 'BenchmarkKernels|BenchmarkDecoderSlice' -benchtime 1x
	$(GO) test ./internal/tensor -run 'TestGEMMFloor|TestExpFloor' -count=1 -v
	$(GO) test ./internal/perf -run TestOpTimeZeroAlloc -count=1
	$(GO) test ./internal/nn -run NONE -bench BenchmarkTrainStep -benchtime 1x

# Code-layout check: builds benchmark/ at BASE (extracted with git archive
# into a temporary directory) and at the working tree, and lists every
# main.* and mepipe/* text symbol whose address mod 64 differs between the
# two binaries.
layout-diff:
	@test -n "$(BASE)" || { echo "usage: make layout-diff BASE=<rev>" >&2; exit 2; }
	sh scripts/layoutdiff.sh $(BASE)

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
	rm -f report.html artifact/results/*.txt
