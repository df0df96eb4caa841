// Package mepipe is a from-scratch reproduction of "MEPipe: Democratizing
// LLM Training with Memory-Efficient Slice-Level Pipeline Scheduling on
// Cost-Effective Accelerators" (EuroSys 2025).
//
// It provides, in pure Go with no dependencies:
//
//   - the paper's SVPP scheduler (slice-level pipeline schedules with
//     memory-limited variants and backward rescheduling) plus every
//     baseline it is evaluated against (GPipe, DAPPLE/1F1B, interleaved
//     VPP, Hanayo waves, TeraPipe, ZB-1P, ZBV);
//   - the fine-grained weight-gradient engine of §5 (per-GEMM decomposition
//     drained into pipeline stalls);
//   - a calibrated discrete-event simulator of the paper's RTX 4090 and
//     A100 clusters, with the §4.5 memory model and §7.3 grid search;
//   - a real goroutine pipeline runtime over a tiny numeric decoder that
//     proves every generated schedule gradient-equivalent to sequential
//     training;
//   - a benchmark harness regenerating every table and figure of the
//     paper's evaluation.
//
// This root package is a façade over the internal packages: it re-exports
// the types and entry points a downstream user needs. See README.md for a
// tour and DESIGN.md for the architecture.
package mepipe

import (
	"context"
	"fmt"

	"mepipe/internal/analytic"
	"mepipe/internal/bench"
	"mepipe/internal/chaos"
	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/opt"
	"mepipe/internal/partition"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/strategy"
	"mepipe/internal/timeline"
	"mepipe/internal/verify"
)

// Sentinel errors. Every failure the engines and the strategy search report
// wraps one of these, so callers classify with errors.Is instead of string
// matching.
var (
	ErrOOM          = errs.ErrOOM
	ErrIncompatible = errs.ErrIncompatible
	ErrCancelled    = errs.ErrCancelled
	// ErrStageFailed classifies an unrecoverable pipeline-stage failure
	// (see docs/RESILIENCE.md); ErrTransient marks retryable
	// communication faults absorbed by the runtime's bounded backoff.
	ErrStageFailed = errs.ErrStageFailed
	ErrTransient   = errs.ErrTransient
	// ErrUncertified classifies schedules rejected by the static
	// certifier (see docs/VERIFICATION.md): a dependency cycle, a swept
	// activation peak over budget, or an incomplete op family. Both
	// execution engines and the strategy search certify before running.
	ErrUncertified = errs.ErrUncertified
)

// Model, parallelism and training configuration.
type (
	Model    = config.Model
	Parallel = config.Parallel
	Training = config.Training
	Cluster  = cluster.Cluster
)

// Llama 2 presets (Table 4) and clusters (§7.1, §7.6).
var (
	Llama7B        = config.Llama7B
	Llama13B       = config.Llama13B
	Llama34B       = config.Llama34B
	ModelByName    = config.ModelByName
	RTX4090Cluster = cluster.RTX4090Cluster
	A100Cluster    = cluster.A100Cluster
)

// Schedules.
type (
	Schedule    = sched.Schedule
	SVPPOptions = sched.SVPPOptions
	Op          = sched.Op
)

// LoadSchedule deserialises and validates a schedule saved with
// Schedule.Save — schedules are portable JSON artifacts. Invalid files
// are rejected with an error wrapping ErrIncompatible (malformed shape)
// or ErrUncertified (deadlocking order).
var LoadSchedule = sched.Load

// Static certification (docs/VERIFICATION.md): CertifySchedule proves a
// schedule deadlock-free, complete, and — when a budget is supplied —
// within its per-stage activation budget, returning a Certificate with
// the swept peaks or an error wrapping ErrUncertified that carries a
// minimal counterexample (the cycle, or the first over-budget op).
type (
	Certificate    = verify.Certificate
	CertifyOptions = verify.Options
	CertifyBudget  = verify.Budget
)

var (
	CertifySchedule = verify.Certify
	// SlotBudget builds a CertifyBudget from per-stage family-slot
	// counts (unit footprints); PlanBudget derives one from a memory
	// plan and a cost model's activation footprints.
	SlotBudget = verify.SlotBudget
	PlanBudget = verify.PlanBudget
)

// Schedule constructors: the paper's system and its baselines.
var (
	NewSVPP     = sched.SVPP
	NewMEPipe   = sched.MEPipe
	NewGPipe    = sched.GPipe
	NewDAPPLE   = sched.DAPPLE
	NewVPP      = sched.VPP
	NewHanayo   = sched.Hanayo
	NewTeraPipe = sched.TeraPipe
	NewZB1P     = sched.ZB1P
	NewZBV      = sched.ZBV
	DefaultF    = sched.DefaultF
)

// Simulation.
type (
	SimOptions = sim.Options
	SimResult  = sim.Result
	SimCosts   = sim.Costs
)

// Observability: both execution engines (the discrete-event simulator and
// the live goroutine runtime) emit structured span events — op execution,
// cross-stage communication with byte counts, activation memory traffic
// with high-water marks, stalls by cause, and the §5 dynamic engine's
// budget-stall / W-drain events — into a pluggable TraceSink. A Recorder
// collects them into a Trace; a Trace aggregates into a Snapshot of
// per-stage metrics and exports through any Exporter. See
// docs/OBSERVABILITY.md.
type (
	TraceEvent = obs.Event
	TraceSink  = obs.Sink
	Trace      = obs.Trace
	Recorder   = obs.Recorder
	Snapshot   = obs.Snapshot

	// Exporter is the single output interface of the system: ASCII and
	// SVG Gantt charts, Chrome trace-event JSON (Perfetto /
	// chrome://tracing), and JSONL all implement it.
	Exporter = obs.Exporter

	// The exporters.
	ChromeTrace   = obs.ChromeTrace
	JSONLTrace    = obs.JSONL
	ASCIITimeline = timeline.ASCII
	SVGTimeline   = timeline.SVG
)

// NewRecorder returns an empty in-memory trace sink.
var NewRecorder = obs.NewRecorder

// Option tunes Simulate, Evaluate and Search calls. Options that do not
// apply to a call are ignored (Evaluate and Search derive memory budgets
// and engine mode from the configuration itself, so only WithTrace applies
// to them).
type Option func(*runConfig)

type runConfig struct {
	sink      obs.Sink
	budget    []int64
	dynamicW  bool
	tail      func(stage int) float64
	faults    *chaos.Plan
	ckptEvery int
	// kernels sizes the GEMM pool for calls that execute real tensor
	// kernels (see WithKernelWorkers in kernels.go).
	kernels *KernelConfig
}

// WithTrace attaches a sink receiving the run's structured span events.
func WithTrace(sink TraceSink) Option {
	return func(c *runConfig) { c.sink = sink }
}

// WithActBudget sets the per-stage activation memory budget in bytes. In
// dynamic weight-gradient mode the budget forces deferred W work to drain
// before new forwards are admitted (§5); exceeding it with nothing to drain
// marks the run OOM.
func WithActBudget(budget []int64) Option {
	return func(c *runConfig) { c.budget = budget }
}

// WithDynamicW enables the paper's execution-engine behaviour: W/WPiece ops
// leave their static schedule positions and drain from a per-stage queue
// into dependency stalls. Requires a split-backward schedule.
func WithDynamicW() Option {
	return func(c *runConfig) { c.dynamicW = true }
}

// WithTailTime appends per-stage post-iteration time (optimizer step plus
// gradient synchronisation).
func WithTailTime(tail func(stage int) float64) Option {
	return func(c *runConfig) { c.tail = tail }
}

// Fault injection and resilience (§9). A FaultPlan describes deterministic
// seeded faults — stage crashes, slow links, transient send failures — and
// applies to both execution engines: Simulate and Evaluate charge the
// plan's costs onto the simulated timeline (chaos.FaultyCosts), while the
// live pipeline runtime takes an Injector through its StageHook/Transport
// seams and actually recovers. See docs/RESILIENCE.md.
type (
	FaultPlan  = chaos.Plan
	FaultCrash = chaos.Crash
	SlowLink   = chaos.SlowLink
	FlakyLink  = chaos.FlakyLink
)

// NewFaultInjector builds the runtime injector for a plan.
var NewFaultInjector = chaos.New

// WithFaultPlan subjects a Simulate or Evaluate call to a deterministic
// fault plan: crashes charge the plan's recovery and replay costs, slow
// links stretch transfers.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *runConfig) { c.faults = p }
}

// WithCheckpointEvery sets the stage-level checkpoint period in scheduled
// ops. Under a fault plan, crashes then replay only from the last
// checkpoint boundary instead of losing the whole iteration, at the
// plan's per-checkpoint cost.
func WithCheckpointEvery(n int) Option {
	return func(c *runConfig) { c.ckptEvery = n }
}

// Simulate runs one simulated iteration of s under the given cost model.
// The context is checked on entry — one simulated iteration is short — and
// a cancelled one returns an error wrapping ErrCancelled; options attach
// tracing, memory budgets, the §5 dynamic weight-gradient engine, and tail
// time:
//
//	rec := mepipe.NewRecorder()
//	res, err := mepipe.Simulate(ctx, s, costs,
//		mepipe.WithTrace(rec), mepipe.WithActBudget(budget), mepipe.WithDynamicW())
func Simulate(ctx context.Context, s *Schedule, costs SimCosts, opts ...Option) (*SimResult, error) {
	var c runConfig
	for _, fn := range opts {
		fn(&c)
	}
	if c.faults != nil {
		costs = chaos.FaultyCosts(costs, s, *c.faults, c.ckptEvery)
	}
	return sim.RunContext(ctx, sim.Options{
		Sched: s, Costs: costs,
		ActBudget: c.budget,
		DynamicW:  c.dynamicW,
		TailTime:  c.tail,
		Trace:     c.sink,
	})
}

// UnitCosts returns uniform unit costs for analytic-style simulations.
func UnitCosts() sim.UniformCosts { return sim.Unit() }

// Planning (§6) and strategy search (§7.3).
type (
	// Plan is a fully resolved configuration: the strategy, the chosen
	// SVPP variant, the generated schedule, and the cost and memory
	// models behind them. Plan.Simulate certifies the schedule and
	// simulates one iteration with the §5 dynamic engine.
	Plan = strategy.Plan

	System       = strategy.System
	Eval         = strategy.Eval
	SearchResult = strategy.SearchResult
	SearchSpace  = strategy.SearchSpace
	SweepResult  = strategy.SweepResult
	SweepStats   = strategy.SweepStats
)

// Systems under evaluation.
const (
	DAPPLE   = strategy.DAPPLE
	VPP      = strategy.VPP
	ZB       = strategy.ZB
	ZBV      = strategy.ZBV
	MEPipe   = strategy.MEPipe
	TeraPipe = strategy.TeraPipe
	GPipe    = strategy.GPipe
)

var (
	DefaultSpace = strategy.DefaultSpace
	Systems      = strategy.Systems
)

// Job is one training job to plan.
type Job struct {
	Model   Model
	Cluster Cluster
	Train   Training
}

// PlanMEPipe grid-searches the strategy space (§7.3) and resolves the best
// MEPipe plan for the job. When no MEPipe configuration fits, the error
// wraps ErrOOM.
func PlanMEPipe(job Job) (*Plan, error) {
	res, err := strategy.Search(strategy.MEPipe, job.Model, job.Cluster, job.Train, strategy.DefaultSpace())
	if err != nil {
		return nil, err
	}
	if !res.Found() {
		return nil, fmt.Errorf("mepipe: no MEPipe configuration fits %s on %s: %w", job.Model.Name, job.Cluster.GPU.Name, ErrOOM)
	}
	return PlanMEPipeAt(job, res.Candidates[0].Par)
}

// PlanMEPipeAt resolves the MEPipe plan for a specific strategy (useful to
// pin the paper's Table 5 configurations) exactly as Evaluate does. A
// strategy MEPipe cannot express wraps ErrIncompatible; one that does not
// fit in memory wraps ErrOOM.
func PlanMEPipeAt(job Job, par Parallel) (*Plan, error) {
	p, err := strategy.Resolve(strategy.MEPipe, job.Model, job.Cluster, par, job.Train)
	if err != nil {
		return nil, err
	}
	if p.Unfit != nil {
		return nil, fmt.Errorf("mepipe: planning %s on %s at %v: %w", job.Model.Name, job.Cluster.GPU.Name, par, p.Unfit)
	}
	return p, nil
}

// Evaluate runs one (system, parallel strategy) configuration through the
// memory model, the schedule generator, and the simulator. WithTrace
// captures the simulated iteration's event stream.
func Evaluate(ctx context.Context, sys System, m Model, cl Cluster, par Parallel, tr Training, opts ...Option) (*Eval, error) {
	var c runConfig
	for _, fn := range opts {
		fn(&c)
	}
	sopts := []strategy.Option{strategy.WithSink(c.sink)}
	if c.faults != nil {
		plan, every := *c.faults, c.ckptEvery
		sopts = append(sopts, strategy.WithCostWrap(func(s *sched.Schedule, costs sim.Costs) sim.Costs {
			return chaos.FaultyCosts(costs, s, plan, every)
		}))
	}
	return strategy.EvaluateContext(ctx, sys, m, cl, par, tr, sopts...)
}

// Search grid-searches the strategy space for one system (§7.3) and returns
// candidates sorted fastest-feasible-first in a deterministic total order.
// Cancelling ctx mid-search stops the grid, drains every worker, and
// returns an error wrapping ErrCancelled.
func Search(ctx context.Context, sys System, m Model, cl Cluster, tr Training, sp SearchSpace, opts ...Option) (*SearchResult, error) {
	var c runConfig
	for _, fn := range opts {
		fn(&c)
	}
	return strategy.SearchContext(ctx, sys, m, cl, tr, sp, strategy.WithSink(c.sink))
}

// Sweep grid-searches several systems in one pass of the grid-search
// engine Search also runs on: every grid point of every system is
// evaluated like Evaluate does, on a worker pool that starts the largest
// points first. When sp.Prune is set, it drops every point whose work
// bound exceeds the system's best feasible time, and skips evaluating such
// points once a faster feasible point is known; the best is unchanged. The
// result is identical, per system, to a Search call — including candidate
// order and the Evaluated/Pruned counters — for every worker count (see
// docs/PERFORMANCE.md).
func Sweep(ctx context.Context, systems []System, m Model, cl Cluster, tr Training, sp SearchSpace) (*SweepResult, error) {
	return strategy.Sweep(ctx, systems, m, cl, tr, sp)
}

// Analytic closed forms (Table 3).
type (
	AnalyticParams = analytic.Params
	AnalyticMethod = analytic.Method
)

// Table 3 rows.
const (
	AnalyticGPipe    = analytic.GPipe
	AnalyticDAPPLE   = analytic.DAPPLE
	AnalyticVPP      = analytic.VPP
	AnalyticHanayo   = analytic.Hanayo
	AnalyticTeraPipe = analytic.TeraPipe
	AnalyticSVPP     = analytic.SVPP
)

var (
	BubbleRatio      = analytic.BubbleRatio
	ActivationMemory = analytic.ActivationMemory
)

// Slice partitioning (uniform vs TeraPipe-style non-uniform, §5).
var (
	UniformPartition = partition.Uniform
	OptimalPartition = partition.Optimal
)

// Experiments: every table and figure of the paper's evaluation.
type (
	Experiment = bench.Experiment
	Report     = bench.Report
)

var (
	Experiments  = bench.Experiments
	ExperimentBy = bench.ByID
)

// MakespanBound is the order-free lower bound on a schedule's makespan.
var MakespanBound = sim.MakespanBound

// Schedule optimization (docs/OPTIMIZER.md): seeded, deterministic
// simulated annealing over certified op reorderings, with the static
// certifier as feasibility oracle and the discrete-event simulator as
// cost oracle. OptimizeOptions tunes the search; OptimizeResult carries
// the discovered schedule, its full certificate and the search counters;
// Optimized wraps a result with the configuration it was derived from.
type (
	OptimizeOptions = opt.Options
	OptimizeResult  = opt.Result
	Optimized       = strategy.Optimized
)

// Optimize anneals one schedule under a cost model and returns the best
// certified reordering discovered. The search is deterministic in
// (schedule, costs, options) — Workers only changes wall-clock time.
// Small schedules run every round on the calling goroutine; larger ones
// fan each round out to min(Workers, Proposals, GOMAXPROCS) workers
// started once per call and joined before it returns. Errors wrap ErrIncompatible (nil inputs), ErrUncertified (the input
// schedule fails certification under the options' budget) or
// ErrCancelled. WithTrace taps one EvMove event per proposal.
func Optimize(ctx context.Context, s *Schedule, costs SimCosts, o OptimizeOptions, opts ...Option) (*OptimizeResult, error) {
	var c runConfig
	for _, fn := range opts {
		fn(&c)
	}
	if o.Trace == nil {
		o.Trace = c.sink
	}
	return opt.Optimize(ctx, s, costs, o)
}

// OptimizeEval optimizes the preset schedule of one (system, parallel
// strategy) configuration: it rebuilds the configuration's memory plan,
// calibrated cost model and preset schedule exactly like Evaluate, then
// anneals the schedule under the plan's byte-accurate activation budget.
// This is what POST /v1/optimize on the planning server serves.
func OptimizeEval(ctx context.Context, sys System, m Model, cl Cluster, par Parallel, tr Training, o OptimizeOptions, opts ...Option) (*Optimized, error) {
	var c runConfig
	for _, fn := range opts {
		fn(&c)
	}
	return strategy.OptimizeContext(ctx, sys, m, cl, par, tr, o, strategy.WithSink(c.sink))
}

// DiscoveredArtifact loads the repo's checked-in discovered-schedule
// artifact — the optimization point, best preset, optimizer
// configuration and discovered schedule that CI re-certifies on every
// push (see docs/OPTIMIZER.md).
var DiscoveredArtifact = opt.Discovered
