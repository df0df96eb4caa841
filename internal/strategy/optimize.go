package strategy

import (
	"context"
	"errors"
	"fmt"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/opt"
	"mepipe/internal/verify"
)

// Optimized is the outcome of OptimizeContext: one configuration's preset
// schedule annealed by the internal/opt local search under the
// configuration's own byte-accurate memory budget.
type Optimized struct {
	Sys System
	Par config.Parallel
	N   int // micro-batches per data-parallel group
	F   int // chosen SVPP variant (MEPipe only)

	// Opt carries the discovered schedule, its certificate and the
	// search statistics.
	Opt *opt.Result
}

// OptimizeContext resolves the configuration exactly like EvaluateContext
// (through Resolve) and then runs the internal/opt simulated-annealing
// search over certified reorderings of its schedule (for MEPipe, the
// order the §5 engine ran), evaluated in the static execution model. The
// seed and every candidate must fit the budget, by default
// verify.PlanBudget: the plan's per-stage activation budget under the
// cost model's real footprints.
//
// Errors wrap errs.ErrIncompatible (shape), errs.ErrOOM (the
// configuration does not fit; a seed over its budget also wraps the
// certifier's *verify.BudgetError) or errs.ErrCancelled.
//
//mepipe:deterministic
func OptimizeContext(ctx context.Context, sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training, oopt opt.Options, opts ...Option) (*Optimized, error) {
	p, err := Resolve(sys, m, cl, par, tr)
	if err != nil {
		return nil, err
	}
	if p.Unfit != nil {
		return nil, fmt.Errorf("strategy: optimizing %s %v: %w", sys, par, p.Unfit)
	}
	if oopt.Budget == nil {
		oopt.Budget = verify.PlanBudget(p.Memory, p.Costs)
	}
	if oopt.Trace == nil {
		oopt.Trace = buildOptions(opts).sink
	}
	res, err := opt.Optimize(ctx, p.Schedule, p.Costs, oopt)
	var over *verify.BudgetError
	if errors.As(err, &over) {
		return nil, fmt.Errorf("strategy: optimizing %s %v: %w: %w", sys, par, err, errs.ErrOOM)
	}
	if err != nil {
		return nil, fmt.Errorf("strategy: optimizing %s %v: %w", sys, par, err)
	}
	return &Optimized{Sys: sys, Par: par, N: p.N, F: p.F, Opt: res}, nil
}
