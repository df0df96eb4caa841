package strategy

import (
	"context"
	"fmt"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/memplan"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// Plan is one configuration resolved the way §6 builds it: the memory
// model, the calibrated cost model standing in for the profiler, the SVPP
// variant it selects, and the system's preset schedule. Resolve is the one
// place that builds it; Simulate certifies and runs it. Evaluate, Optimize
// and the façade's planners are thin callers of the two.
type Plan struct {
	Sys System
	Par config.Parallel
	N   int // micro-batches per pipeline
	F   int // SVPP variant (§4.2), MEPipe only

	// Memory is the §4.5 memory plan; the zero-bubble systems' carries
	// memplan.SplitReserve.
	Memory *memplan.Plan
	// Costs is the calibrated cost model, nil when static memory does not
	// fit.
	Costs *perf.Costs
	// Schedule is the system's table and DynamicW selects the §5 dynamic
	// W engine for it (MEPipe); Resolve writes in the order the engine ran.
	Schedule *sched.Schedule
	DynamicW bool

	// Unfit says why the configuration cannot run, nil when it can: its
	// static memory exceeds the device (errStatic), or its generator built
	// no schedule — for MEPipe, no SVPP variant fits the activation
	// budget. Memory failures wrap errs.ErrOOM.
	Unfit error
}

// staticWhy is an Eval's OOMWhy when static memory (weights, gradients,
// optimizer state) exceeds the device; errStatic is the matching Unfit.
const staticWhy = "static memory exceeds device capacity"

var errStatic = fmt.Errorf("%s: %w", staticWhy, errs.ErrOOM)

// Resolve builds the plan of one (system, parallel strategy) configuration:
// compatibility, mesh, micro-batches, memory plan, feasibility, cost model
// and its chunk placement, variant and preset schedule, in that order.
// Shape failures are errors (wrapping errs.ErrIncompatible); a
// configuration that is well formed but cannot run is a plan with Unfit
// set.
//
// A fitting DynamicW plan's schedule is the iteration the search ranks:
// the order the §5 engine ran under the plan's costs, budget and tail
// (sim.WriteOrder). A static run of it reproduces the plan's Result bit
// for bit, and it certifies under verify.PlanBudget unless that is OOM.
//
//mepipe:deterministic
func Resolve(sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training) (*Plan, error) {
	p, err := resolve(sys, m, cl, par, tr, nil)
	if err != nil || p.Unfit != nil || !p.DynamicW {
		return p, err
	}
	if err := sim.WriteOrder(sim.Options{Sched: p.Schedule, Costs: p.Costs, ActBudget: p.Memory.ActBudget,
		DynamicW: true, TailTime: p.Costs.TailTime}); err != nil {
		return nil, fmt.Errorf("strategy: simulating %s %v: %w", sys, par, err)
	}
	return p, nil
}

// errSkipped ends a resolution whose stop hook ruled it out at its work
// bound; resolve and evaluate return it bare. The grid search's replay
// drops every such point as pruned, so it surfaces only if that reasoning
// breaks.
var errSkipped = fmt.Errorf("strategy: search skipped a point it needs (internal branch-and-bound error): %w", errs.ErrUncertified)

// resolve is Resolve with a stop hook for the grid search. A non-nil stop
// is handed the configuration's work bound once the cost model exists;
// when it returns true, resolve returns errSkipped before building the
// schedule. Configurations that end earlier (shape errors, static OOM)
// have no bound and never reach stop.
func resolve(sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training, stop func(bound float64) bool) (*Plan, error) {
	if err := compatible(sys, par); err != nil {
		return nil, err
	}
	mesh, err := cluster.NewMesh(cl, par)
	if err != nil {
		return nil, err
	}
	n, err := tr.MicroBatches(par)
	if err != nil {
		return nil, err
	}
	var reserve int64
	if sys == ZB || sys == ZBV {
		reserve = memplan.SplitReserve
	}
	mem, err := memplan.NewWithReserve(m, mesh, reserve)
	if err != nil {
		return nil, err
	}
	p := &Plan{Sys: sys, Par: par, N: n, Memory: mem}
	if !mem.Feasible() {
		p.Unfit = errStatic
		return p, nil
	}
	if p.Costs, err = perf.New(m, mesh); err != nil {
		return nil, err
	}
	if sys == ZBV {
		p.Costs.WithPlacement(sched.Wave{P: par.PP})
	}
	if stop != nil && stop(workBound(p.Costs, par, n)) {
		return nil, errSkipped
	}
	p.Schedule, p.DynamicW, p.F, p.Unfit = buildSchedule(sys, par, n, p.Costs, mem)
	return p, nil
}

// workBound is a lower bound on the iteration time of any schedule of the
// configuration: a stage runs its ops one after another, so it cannot
// finish before N times the F and B work of its chunks and slices, plus
// its tail. A fused B costs what BAct and its W pieces cost together, so
// the bound covers split schedules, and the §5 dynamic W engine, which
// only reorders those pieces, cannot beat it. The factor allows for
// rounding in the simulator's sums.
func workBound(c *perf.Costs, par config.Parallel, n int) float64 {
	bound := 0.0
	for k := 0; k < par.PP; k++ {
		work := 0.0
		for ch := 0; ch < par.VP; ch++ {
			for s := 0; s < par.SPP; s++ {
				work += c.OpTime(k, sched.Op{Kind: sched.F, Chunk: ch, Slice: s}) +
					c.OpTime(k, sched.Op{Kind: sched.B, Chunk: ch, Slice: s})
			}
		}
		bound = max(bound, float64(n)*work+c.TailTime(k))
	}
	return bound * (1 - 1e-9)
}

// Simulate certifies the plan's schedule and simulates one iteration on
// the modelled cluster under the plan's activation budget, engine mode and
// gradient-sync tail. The plan must fit (Unfit nil). WithSink traces the
// run; WithCostWrap perturbs its costs.
//
// The simulator session is the structural gate. Binding loads the table
// onto its op universe (sched.Program.Load) and rejects absent
// dependencies; the first evaluation ranks every op (sched.Topo.Sort)
// before the engine runs or any event is emitted. Those are the checks
// verify.Certify makes without a Budget, so Certify can reject only a
// schedule the session has already failed. Only then does it run: when
// it rejects, the error carries its minimal counterexample (generators
// always emit certifiable tables, so that is a bug); otherwise the error
// is the simulator's.
//
//mepipe:deterministic
func (p *Plan) Simulate(ctx context.Context, opts ...Option) (*sim.Result, error) {
	o := buildOptions(opts)
	var costs sim.Costs = p.Costs
	if o.costWrap != nil {
		costs = o.costWrap(p.Schedule, p.Costs)
	}
	// Evaluate binds a pooled session, which emits into o.sink when one
	// is set; traced and untraced results are bitwise-identical. The
	// session's bind and first sweep are the structural gate; a schedule
	// they reject is certified below for its counterexample.
	res, err := sim.Evaluate(ctx, sim.Options{
		Sched: p.Schedule, Costs: costs,
		ActBudget: p.Memory.ActBudget,
		DynamicW:  p.DynamicW,
		TailTime:  p.Costs.TailTime,
		Trace:     o.sink,
	})
	if err != nil {
		if _, cerr := verify.Certify(p.Schedule, verify.Options{}); cerr != nil {
			return nil, fmt.Errorf("strategy: %s schedule rejected: %w", p.Sys, cerr)
		}
		return nil, fmt.Errorf("strategy: simulating %s %v: %w", p.Sys, p.Par, err)
	}
	return res, nil
}

// compatible rejects strategy fields a system cannot express. Failures wrap
// errs.ErrIncompatible so callers can classify them with errors.Is.
func compatible(sys System, par config.Parallel) error {
	switch sys {
	case DAPPLE, GPipe:
		if par.VP != 1 || par.SPP != 1 {
			return fmt.Errorf("strategy: %s supports neither virtual pipelining nor slices: %w", sys, errs.ErrIncompatible)
		}
	case VPP:
		if par.VP < 2 || par.SPP != 1 {
			return fmt.Errorf("strategy: VPP needs VP >= 2 and no slices: %w", errs.ErrIncompatible)
		}
	case ZB:
		if par.VP != 1 || par.SPP != 1 || par.Recompute != config.RecomputeNone {
			return fmt.Errorf("strategy: ZB is incompatible with VP, SPP and recomputation: %w", errs.ErrIncompatible)
		}
	case ZBV:
		if par.VP != 2 || par.SPP != 1 || par.Recompute != config.RecomputeNone {
			return fmt.Errorf("strategy: ZBV needs VP = 2 and is incompatible with SPP and recomputation: %w", errs.ErrIncompatible)
		}
	case MEPipe:
		if par.CP != 1 || par.Recompute != config.RecomputeNone {
			return fmt.Errorf("strategy: MEPipe uses SPP instead of CP and never recomputes: %w", errs.ErrIncompatible)
		}
	case TeraPipe:
		if par.VP != 1 || par.CP != 1 {
			return fmt.Errorf("strategy: TeraPipe supports neither virtual pipelining nor CP: %w", errs.ErrIncompatible)
		}
	}
	return nil
}

// buildSchedule constructs the system's schedule, choosing the MEPipe
// memory variant from the plan. The returned bool selects the dynamic
// weight-gradient engine.
func buildSchedule(sys System, par config.Parallel, n int, costs *perf.Costs, plan *memplan.Plan) (s *sched.Schedule, dynamicW bool, f int, err error) {
	p := par.PP
	switch sys {
	case DAPPLE:
		s, err = sched.DAPPLE(p, n, costs)
	case GPipe:
		s, err = sched.GPipe(p, n, costs)
	case VPP:
		s, err = sched.VPP(p, par.VP, n, costs)
	case ZB:
		s, err = sched.ZB1P(p, n, costs)
	case ZBV:
		s, err = sched.ZBV(p, n, costs)
	case TeraPipe:
		s, err = sched.TeraPipe(p, par.SPP, n, costs)
	case MEPipe:
		fam := costs.ActBytes(0, sched.Op{Kind: sched.F})
		grad := costs.GradBytes(0, sched.Op{Kind: sched.BAct})
		f, err = memplan.ChooseF(par, fam, grad, plan.ActBudget[0])
		if err != nil {
			// No SVPP variant fits the activation budget: a memory
			// failure, not a shape failure.
			return nil, false, 0, fmt.Errorf("%v: %w", err, errs.ErrOOM)
		}
		s, err = sched.MEPipe(p, par.VP, par.SPP, n, f, costs.WPieces(), costs)
		dynamicW = true
	default:
		err = fmt.Errorf("strategy: unknown system %v: %w", sys, errs.ErrIncompatible)
	}
	return s, dynamicW, f, err
}
